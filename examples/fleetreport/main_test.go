package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestFleetreportGolden runs the example and compares what it prints with
// testdata/fleetreport.golden byte for byte: both fleets are fixed-seed, so
// any change in the testbed, the failure statistics or the predictors shows
// up here.
func TestFleetreportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fleetreport.golden")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	main()
	os.Stdout = stdout
	w.Close()
	if got := <-out; !bytes.Equal(got, want) {
		t.Errorf("fleetreport output differs from testdata/fleetreport.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
