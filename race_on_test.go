//go:build race

package otpdb_test

const raceEnabled = true
