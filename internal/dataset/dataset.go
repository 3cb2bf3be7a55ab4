// Package dataset provides deterministic synthetic federated datasets that
// stand in for FEMNIST and CIFAR-10 in the paper's evaluation.
//
// Substitution rationale: the paper's results depend on
// two data properties — per-client label skew and per-client feature shift
// (non-i.i.d. clients) — not on image statistics. The generators here
// produce Gaussian class prototypes with per-client "writer style" offsets
// (FEMNIST-like) and a strict one-class-per-client partition (the paper's
// strong non-i.i.d. CIFAR-10 setting). Everything is reproducible from a
// seed.
package dataset

import (
	"fmt"
	"math/rand"
)

// Sample is one labelled training example with a flattened feature vector.
type Sample struct {
	X []float64
	Y int
}

// Dataset is an ordered collection of samples sharing a feature dimension
// and label space.
type Dataset struct {
	Samples    []Sample
	Dim        int
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Batch draws a minibatch of the given size uniformly with replacement and
// returns the feature and label slices (views into the dataset; callers
// must not mutate the features).
func (d *Dataset) Batch(rng *rand.Rand, size int) ([][]float64, []int) {
	return d.BatchInto(nil, nil, rng, size)
}

// BatchInto is Batch writing into caller-owned buffers, reused when their
// capacity suffices and grown otherwise — the allocation-free form for
// per-round hot loops. It consumes exactly the same rng draws as Batch,
// so the two are interchangeable without perturbing a seeded run.
func (d *Dataset) BatchInto(xs [][]float64, ys []int, rng *rand.Rand, size int) ([][]float64, []int) {
	if d.Len() == 0 {
		panic("dataset: Batch on empty dataset")
	}
	if cap(xs) < size {
		xs = make([][]float64, size)
	} else {
		xs = xs[:size]
	}
	if cap(ys) < size {
		ys = make([]int, size)
	} else {
		ys = ys[:size]
	}
	for i := 0; i < size; i++ {
		s := d.Samples[rng.Intn(d.Len())]
		xs[i] = s.X
		ys[i] = s.Y
	}
	return xs, ys
}

// XY returns the full dataset as parallel feature/label slices (views).
func (d *Dataset) XY() ([][]float64, []int) {
	xs := make([][]float64, d.Len())
	ys := make([]int, d.Len())
	for i, s := range d.Samples {
		xs[i] = s.X
		ys[i] = s.Y
	}
	return xs, ys
}

// ClassCounts returns a histogram of labels.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, s := range d.Samples {
		counts[s.Y]++
	}
	return counts
}

// Federated is a dataset partitioned over N clients plus a held-out global
// test set. Client i's share corresponds to the paper's C_i samples; the
// global loss weights clients by C_i/C.
type Federated struct {
	Clients    []Dataset
	Test       Dataset
	Dim        int
	NumClasses int
}

// NumClients returns N.
func (f *Federated) NumClients() int { return len(f.Clients) }

// TotalTrain returns C = Σ C_i.
func (f *Federated) TotalTrain() int {
	total := 0
	for i := range f.Clients {
		total += f.Clients[i].Len()
	}
	return total
}

// Validate checks structural invariants; experiment configs call it before
// running.
func (f *Federated) Validate() error {
	if len(f.Clients) == 0 {
		return fmt.Errorf("dataset: no clients")
	}
	for i := range f.Clients {
		if f.Clients[i].Len() == 0 {
			return fmt.Errorf("dataset: client %d has no samples", i)
		}
		if f.Clients[i].Dim != f.Dim {
			return fmt.Errorf("dataset: client %d dim %d != %d", i, f.Clients[i].Dim, f.Dim)
		}
		for _, s := range f.Clients[i].Samples {
			if len(s.X) != f.Dim {
				return fmt.Errorf("dataset: client %d sample dim %d != %d", i, len(s.X), f.Dim)
			}
			if s.Y < 0 || s.Y >= f.NumClasses {
				return fmt.Errorf("dataset: client %d label %d out of range", i, s.Y)
			}
		}
	}
	return nil
}
