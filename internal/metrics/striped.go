package metrics

import "sync"

// stripeCount is the number of independent histogram stripes (power of
// two). Concurrent observers with distinct keys land on distinct stripes,
// so recording a latency never serializes the request path on one mutex;
// 32 stripes exceed any realistic core count for contention purposes, and
// since a stripe's histogram exists only once a value has landed on it and
// holds only the chunks its values touched, merging them on read adds a few
// 64-bucket chunks per stripe that was used.
const stripeCount = 32

// histStripe pads each {mutex, histogram} pair to its own cache line so
// stripes do not false-share under concurrent observation. h is nil until
// the stripe's first Observe.
type histStripe struct {
	mu sync.Mutex
	h  *Histogram
	_  [6]uint64
}

// StripedHistogram is a Histogram sharded for concurrent writers: Observe
// locks only the stripe selected by the caller's key, and readers merge the
// stripes that have been observed into a fresh snapshot. It is the gateway's
// latency recorder under parallel load — the striped replacement for a
// single histogram behind a global mutex.
type StripedHistogram struct {
	stripes [stripeCount]histStripe
}

// NewStripedHistogram creates an empty striped histogram with the standard
// latency geometry of NewHistogram. It allocates only its 32 padded stripe
// headers (2 KiB); each stripe's histogram is created by its first Observe.
func NewStripedHistogram() *StripedHistogram {
	return &StripedHistogram{}
}

// Observe records one value under the stripe selected by key. Callers with
// distinct keys (e.g. per-request caller IDs) never contend; an identical
// key always lands on the same stripe, which is still correct — stripes
// are merged on read.
func (s *StripedHistogram) Observe(key uint64, v float64) {
	st := &s.stripes[key&(stripeCount-1)]
	st.mu.Lock()
	if st.h == nil {
		st.h = NewHistogram()
	}
	st.h.Observe(v)
	st.mu.Unlock()
}

// Snapshot merges all stripes into a freshly allocated Histogram. The
// merge walks each stripe under its own lock, so a snapshot taken during
// traffic is a consistent-per-stripe view and never blocks writers for
// longer than one stripe merge.
func (s *StripedHistogram) Snapshot() *Histogram {
	out := NewHistogram()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if st.h != nil {
			out.Merge(st.h)
		}
		st.mu.Unlock()
	}
	return out
}
