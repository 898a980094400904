package main

import (
	"strings"

	"repro/internal/obs"
)

// obsMetric is one obs metric reduced to what the per-layer metrics
// read: a counter or gauge value, or a histogram's count, sum and
// cumulative counts at its finite bounds. (obs renders the +Inf bound
// as a string, which does not decode back into its own type.)
type obsMetric struct {
	Value float64   `json:"value,omitempty"`
	Count int64     `json:"count,omitempty"`
	Sum   float64   `json:"sum,omitempty"`
	LE    []float64 `json:"le,omitempty"`
	Cum   []int64   `json:"cum,omitempty"`
}

// flattenObs keys the server, registry and WAL metrics of an obs
// snapshot by name; the children of a labelled counter family are
// summed under the family's name.
func flattenObs(snap []obs.MetricSnapshot) map[string]obsMetric {
	out := map[string]obsMetric{}
	for _, m := range snap {
		if !strings.HasPrefix(m.Name, "lb_server_") && !strings.HasPrefix(m.Name, "lb_registry_") && !strings.HasPrefix(m.Name, "lb_wal_") {
			continue
		}
		f := out[m.Name]
		f.Value += m.Value
		if m.Kind == "histogram" {
			f.Count, f.Sum = m.Count, m.Sum
			f.LE, f.Cum = nil, nil
			for _, b := range m.Buckets[:max(0, len(m.Buckets)-1)] { // the last bucket is +Inf
				f.LE = append(f.LE, b.LE)
				f.Cum = append(f.Cum, b.Count)
			}
		}
		out[m.Name] = f
	}
	return out
}

// obsDelta returns b − a for a counter.
func obsDelta(a, b map[string]obsMetric, name string) float64 {
	return b[name].Value - a[name].Value
}

// histMean returns the mean of the observations a histogram gained
// between snapshots a and b.
func histMean(a, b map[string]obsMetric, name string) float64 {
	n := b[name].Count - a[name].Count
	if n == 0 {
		return 0
	}
	return (b[name].Sum - a[name].Sum) / float64(n)
}

// histQuantile returns the q-quantile of the observations a histogram
// gained between snapshots a and b, interpolating linearly inside the
// bucket the rank falls in; ranks beyond the last finite bound return
// that bound.
func histQuantile(a, b map[string]obsMetric, name string, q float64) float64 {
	hb, ha := b[name], a[name]
	total := hb.Count - ha.Count
	if total <= 0 || len(hb.LE) == 0 {
		return 0
	}
	cum := func(i int) int64 {
		c := hb.Cum[i]
		if i < len(ha.Cum) {
			c -= ha.Cum[i]
		}
		return c
	}
	target := q * float64(total)
	prevCum, lower := int64(0), 0.0
	for i, upper := range hb.LE {
		c := cum(i)
		if float64(c) >= target && c > prevCum {
			frac := (target - float64(prevCum)) / float64(c-prevCum)
			return lower + frac*(upper-lower)
		}
		prevCum, lower = c, upper
	}
	return hb.LE[len(hb.LE)-1]
}
