package main

import "math/bits"

// subBits sets the histogram's resolution: 2^subBits linear sub-buckets
// per power of two, so a bucket is at most 1/128 of its lower bound
// wide and the midpoint a quantile reports is within 0.4% of any value
// in the bucket.
const subBits = 7

const (
	subCount = 1 << subBits
	// Values below subCount get one exact bucket each; every octave
	// above gets subCount buckets, up to 2^63.
	histBuckets = (64 - subBits + 1) * subCount
)

// hist is a log-linear histogram of non-negative int64 values
// (nanoseconds, counts). Recording is one array increment, so a hist
// can sit on a per-response path; merging is a bucket-wise add.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // o >= subBits
	sub := int(uint64(v)>>(o-subBits)) & (subCount - 1)
	return (o-subBits+1)*subCount + sub
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	o := i/subCount + subBits - 1
	sub := int64(i % subCount)
	lo := (int64(subCount) + sub) << (o - subBits)
	width := int64(1) << (o - subBits)
	return lo + width/2
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantile returns the value at nearest rank floor(q·(n-1)) of the
// recorded values, to within the bucket resolution; 0 when empty.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return min(bucketMid(i), h.max)
		}
	}
	return h.max
}
