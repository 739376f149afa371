package lutnn

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestSearchParallelConcurrentCallers runs the CCS fan-out from many
// concurrent callers over shared codebooks. Search's workers write
// disjoint idx[lo·CB : hi·CB] ranges, so every concurrent call must
// reproduce a single caller's Search exactly; under -race this doubles as
// the regression test for that partitioning.
func TestSearchParallelConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	acts := tensor.RandN(rng, 1, 256, 32)
	cbs, err := BuildCodebooks(acts, Params{V: 4, CT: 16}, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := cbs.Search(acts)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				if got := cbs.Search(acts); !bytes.Equal(got, want) {
					t.Error("concurrent Search diverged from the single-caller result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConvertConcurrentCallers runs the per-codebook k-means and LUT-build
// fan-outs from many concurrent callers over shared inputs. Each codebook
// writes only its own block of the codebooks and of the table, so every
// concurrent Convert must reproduce a single caller's layer bit for bit;
// under -race this doubles as the regression test for that partitioning.
func TestConvertConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	acts := tensor.RandN(rng, 1, 512, 32)
	w := tensor.RandN(rng, 0.1, 512, 32)
	p := Params{V: 4, CT: 16}
	want, err := Convert(w, nil, acts, p, 13)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 2; it++ {
				got, err := Convert(w, nil, acts, p, 13)
				if err != nil {
					t.Error(err)
					return
				}
				if firstBitDiff(got.Codebooks.Data, want.Codebooks.Data) >= 0 ||
					firstBitDiff(got.Table.Data, want.Table.Data) >= 0 {
					t.Error("concurrent Convert diverged from the single-caller layer")
					return
				}
			}
		}()
	}
	wg.Wait()
}
