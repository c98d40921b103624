package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestQuickstartGolden runs the example and compares what it prints with
// testdata/quickstart.golden byte for byte: the scenario is fixed-seed, so
// any change in the detection pipeline's behaviour shows up here.
func TestQuickstartGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quickstart.golden")
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
		t.Errorf("quickstart output differs from testdata/quickstart.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
