package supervise

import (
	"errors"
	"math"
	"testing"

	"repro/internal/distmech"
)

// FuzzClassify feeds the failure classifier random partial results:
// it must never panic and always return a well-formed verdict —
// exactly one of accept / retry / abort, with exclusion lists that
// are unique and in range.
func FuzzClassify(f *testing.F) {
	f.Add(5, uint8(0), []byte{}, []byte{}, 0, true)
	f.Add(8, uint8(1), []byte{2}, []byte{250}, 3, true)
	f.Add(2, uint8(3), []byte{0, 0, 1}, []byte{1, 1}, -1, false)
	f.Add(0, uint8(9), []byte{7}, []byte{7}, 1<<30, true)
	f.Fuzz(func(t *testing.T, n int, errCode uint8, flagged, missing []byte, claims int, hasRes bool) {
		errs := []error{
			nil,
			distmech.ErrQuorumLost,
			distmech.ErrDeadlineExceeded,
			distmech.ErrAggregationIncomplete,
			distmech.ErrDisseminationIncomplete,
			distmech.ErrConservation,
			distmech.ErrRootCrashed,
			errors.New("arbitrary failure"),
		}
		err := errs[int(errCode)%len(errs)]
		var res *distmech.Result
		if hasRes {
			res = &distmech.Result{
				ClaimsOutstanding: claims,
				S:                 math.NaN(),
			}
			for _, b := range flagged {
				res.Flagged = append(res.Flagged, int(b)-3)
			}
			for _, b := range missing {
				res.Missing = append(res.Missing, int(b)-3)
			}
		}

		v := Classify(res, err, n)

		if v.Accept && v.Retry {
			t.Fatal("verdict both accepts and retries")
		}
		if v.Accept && v.Class != ClassOK {
			t.Fatalf("accepted with class %v", v.Class)
		}
		if v.Accept && (len(v.ExcludeAudit) > 0 || len(v.ExcludeUnreachable) > 0) {
			t.Fatal("accepted verdict excludes nodes")
		}
		if !v.Retry && (len(v.ExcludeAudit) > 0 || len(v.ExcludeUnreachable) > 0) {
			t.Fatal("non-retry verdict excludes nodes")
		}
		for _, list := range [][]int{v.ExcludeAudit, v.ExcludeUnreachable} {
			seen := map[int]bool{}
			for _, idx := range list {
				if idx < 0 || idx >= n {
					t.Fatalf("exclusion %d out of range [0,%d)", idx, n)
				}
				if seen[idx] {
					t.Fatalf("duplicate exclusion %d", idx)
				}
				seen[idx] = true
			}
		}
		if v.Class.String() == "" {
			t.Fatal("unnamed class")
		}
	})
}
