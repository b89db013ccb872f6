package transport_test

import (
	"net"
	"reflect"
	"testing"
	"time"

	"otpdb/internal/abcast"
	"otpdb/internal/sproc"
	"otpdb/internal/statex"
	"otpdb/internal/storage"
	"otpdb/internal/transport"
)

// TestTCPCarriesTailChunk sends a rejoin backlog over a two-node tcpnet
// mesh. A statex.TailChunk nests its entries, abcast's []DefEntry, and
// each entry nests its payload, a sproc.Request: three packages' codecs
// in one body. The packages' RegisterWire calls are all it needs.
func TestTCPCarriesTailChunk(t *testing.T) {
	registerAll()
	addrs := make(map[transport.NodeID]string, 2)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[transport.NodeID(i)] = ln.Addr().String()
		_ = ln.Close()
	}
	nodes := make([]*transport.TCPNode, 2)
	for i := range nodes {
		node, err := transport.ListenTCP(transport.TCPConfig{
			ID: transport.NodeID(i), Addrs: addrs, DialRetry: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[i] = node
	}
	in := nodes[1].Subscribe(statex.StreamXfer)

	want := statex.TailChunk{Xfer: 9, Seq: 0, Entries: []abcast.DefEntry{
		{Seq: 41, ID: abcast.MsgID{Origin: 0, Seq: 7}, Payload: putRequest, HasBody: true},
		{Seq: 42, ID: abcast.MsgID{Origin: 1, Seq: 3}, Payload: sproc.Request{Proc: "xfer",
			Args: []storage.Value{storage.Value("from"), storage.Int64Value(-5)}}, HasBody: true},
	}}
	if err := nodes[0].Send(1, statex.StreamXfer, want); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-in:
		if !reflect.DeepEqual(env.Msg, want) {
			t.Fatalf("received\n %#v\nsent\n %#v", env.Msg, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no TailChunk within 10s")
	}
}
