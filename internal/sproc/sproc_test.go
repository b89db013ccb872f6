package sproc

import (
	"errors"
	"testing"

	"otpdb/internal/storage"
)

func noopUpdate(UpdateCtx) (storage.Value, error) { return nil, nil }
func noopQuery(QueryCtx) (storage.Value, error)   { return nil, nil }

func TestRegisterAndLookupUpdate(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterUpdate(Update{Name: "u", Class: "c", Fn: noopUpdate}); err != nil {
		t.Fatal(err)
	}
	u, err := r.Update("u")
	if err != nil || u.Class != "c" {
		t.Fatalf("lookup = %+v, %v", u, err)
	}
	if _, err := r.Update("missing"); !errors.Is(err, ErrUnknownProc) {
		t.Fatalf("missing lookup err = %v", err)
	}
}

func TestRegisterAndLookupQuery(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterQuery(Query{Name: "q", Fn: noopQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query("nope"); !errors.Is(err, ErrUnknownProc) {
		t.Fatalf("missing query err = %v", err)
	}
}

func TestNameCollisionsRejected(t *testing.T) {
	r := NewRegistry()
	_ = r.RegisterUpdate(Update{Name: "x", Class: "c", Fn: noopUpdate})
	if err := r.RegisterUpdate(Update{Name: "x", Class: "d", Fn: noopUpdate}); !errors.Is(err, ErrDuplicateProc) {
		t.Fatalf("dup update err = %v", err)
	}
	if err := r.RegisterQuery(Query{Name: "x", Fn: noopQuery}); !errors.Is(err, ErrDuplicateProc) {
		t.Fatalf("query colliding with update err = %v", err)
	}
	_ = r.RegisterQuery(Query{Name: "y", Fn: noopQuery})
	if err := r.RegisterUpdate(Update{Name: "y", Class: "c", Fn: noopUpdate}); !errors.Is(err, ErrDuplicateProc) {
		t.Fatalf("update colliding with query err = %v", err)
	}
}

func TestValidationRejectsIncomplete(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterUpdate(Update{Name: "", Class: "c", Fn: noopUpdate}); err == nil {
		t.Fatal("nameless update accepted")
	}
	if err := r.RegisterUpdate(Update{Name: "u", Class: "", Fn: noopUpdate}); err == nil {
		t.Fatal("classless update accepted")
	}
	if err := r.RegisterUpdate(Update{Name: "u", Class: "c"}); err == nil {
		t.Fatal("bodyless update accepted")
	}
	if err := r.RegisterQuery(Query{Name: "q"}); err == nil {
		t.Fatal("bodyless query accepted")
	}
}
