package waveform

import (
	"encoding/csv"
	"io"
	"strconv"
)

// Set is an ordered collection of waveforms sharing a context (one
// simulation run, one experiment sweep). Waveforms in a set may have
// different time grids; CSV export resamples onto the first waveform's grid.
type Set struct {
	Waves []*Waveform
}

// Add appends a waveform to the set.
func (s *Set) Add(w *Waveform) { s.Waves = append(s.Waves, w) }

// Get returns the waveform with the given name, or nil.
func (s *Set) Get(name string) *Waveform {
	for _, w := range s.Waves {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Names lists the waveform names in order.
func (s *Set) Names() []string {
	out := make([]string, len(s.Waves))
	for i, w := range s.Waves {
		out[i] = w.Name
	}
	return out
}

// WriteCSV writes the set as a CSV table with a "time" column followed by
// one column per waveform, all sampled on the first waveform's time grid.
func (s *Set) WriteCSV(w io.Writer) error {
	if len(s.Waves) == 0 {
		return ErrEmpty
	}
	cw := csv.NewWriter(w)
	header := append([]string{"time"}, s.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	grid := s.Waves[0].Times
	row := make([]string, len(s.Waves)+1)
	for _, t := range grid {
		row[0] = strconv.FormatFloat(t, 'g', 12, 64)
		for j, wv := range s.Waves {
			row[j+1] = strconv.FormatFloat(wv.At(t), 'g', 9, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
