package spice

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ssnkit/internal/circuit"
)

// tranDenseDigest and tranSparseDigest are the FNV-64a digests of every
// transient sample TestTranSparseDigest produces on the dense and on the
// sparse backend. Like the AC digests they are never regenerated for a
// refactor; a new value means some bit moved.
const (
	tranDenseDigest  = "a1bdfbe67fa67792"
	tranSparseDigest = "f6243199198d876e"
)

// tranICDeck adds what no testdata deck reaches to the digest: a .IC pin
// (the UIC consistency solve) and an inductor shorted in DC.
const tranICDeck = `ic pin with an inductor
v1 a 0 dc 0
r1 a b 1k
c1 b 0 1p
l1 b c 2n
r2 c 0 50
.ic v(b)=1.5
.tran 10p 3n uic
.end
`

// TestTranSparseDigest hashes the bits of every time and value of every
// waveform of a .tran run of each testdata deck (plus tranICDeck), once
// on the dense backend and once with the sparse threshold forced to 1.
func TestTranSparseDigest(t *testing.T) {
	orig := sparseThreshold
	defer func() { sparseThreshold = orig }()
	decks := map[string]*circuit.Deck{}
	names := goldenDecks(t)
	for _, path := range names {
		decks[path] = parseDeckFile(t, path)
	}
	ic, err := circuit.Parse(strings.NewReader(tranICDeck))
	if err != nil {
		t.Fatal(err)
	}
	decks["ic"] = ic
	names = append(names, "ic")
	for _, c := range []struct {
		threshold int
		want      string
	}{{1 << 30, tranDenseDigest}, {1, tranSparseDigest}} {
		sparseThreshold = c.threshold
		h := fnv.New64a()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, name := range names {
			deck := decks[name]
			set, err := newDeckEngine(t, deck, Options{}).Transient(*deck.Tran)
			if err != nil {
				t.Fatalf("%s (threshold %d): %v", filepath.Base(name), c.threshold, err)
			}
			for _, w := range set.Waves {
				h.Write([]byte(w.Name))
				for i := range w.Times {
					put(w.Times[i])
					put(w.Values[i])
				}
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("threshold %d: transient digest %s, want %s: some transient bit moved", c.threshold, got, c.want)
		}
	}
}
