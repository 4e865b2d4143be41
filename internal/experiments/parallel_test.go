package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestParMapOrderAndErrors(t *testing.T) {
	items := make([]int, 37)
	for i := range items {
		items[i] = i
	}
	got, err := parMap(4, items, func(i, item int) (int, error) {
		return item * item, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, g, i*i)
		}
	}

	// Lowest-index error wins deterministically, whatever the schedule.
	wantErr := errors.New("boom 5")
	_, err = parMap(8, items, func(i, item int) (int, error) {
		if item == 5 || item == 20 {
			return 0, fmt.Errorf("boom %d", item)
		}
		return item, nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}

	if r, err := parMap(3, nil, func(i, item int) (int, error) { return 0, nil }); err != nil || r != nil {
		t.Fatalf("empty input: %v %v", r, err)
	}
}

// TestParMapRunsEveryItem holds parMap to its contract at every worker
// count, the serial one included: a failing item stops no other item, and
// the lowest-index error is the one reported.
func TestParMapRunsEveryItem(t *testing.T) {
	items := make([]int, 23)
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		_, err := parMap(workers, items, func(i, _ int) (int, error) {
			calls.Add(1)
			if i == 3 || i == 17 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if got := calls.Load(); got != int64(len(items)) {
			t.Errorf("workers=%d: fn called %d times, want %d", workers, got, len(items))
		}
		if err == nil || err.Error() != "boom 3" {
			t.Errorf("workers=%d: err = %v, want boom 3", workers, err)
		}
	}
}

// TestParallelFanOutMatchesSerial pins the deterministic-collection contract:
// the parallel sweeps must emit byte-identical CSV artifacts to the serial
// order. Running under -race also exercises the worker pool for data races
// across the shared engine-building code.
func TestParallelFanOutMatchesSerial(t *testing.T) {
	type run struct {
		name string
		do   func(Context) (Result, error)
	}
	runs := []run{
		{"fig3", func(c Context) (Result, error) { return Fig3(c) }},
		{"fig4", func(c Context) (Result, error) { return Fig4(c) }},
		{"table1", func(c Context) (Result, error) { return Table1(c) }},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			serial, err := r.do(Context{Fast: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := r.do(Context{Fast: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			var sbuf, pbuf bytes.Buffer
			if err := serial.WriteCSV(&sbuf); err != nil {
				t.Fatal(err)
			}
			if err := parallel.WriteCSV(&pbuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
				t.Errorf("%s: parallel CSV differs from serial", r.name)
			}
			if serial.Render() != parallel.Render() {
				t.Errorf("%s: parallel rendition differs from serial", r.name)
			}
		})
	}
}
