package exec

import (
	"reflect"
	"testing"

	"sma/internal/core"
)

// TestFinishPartialsOrdersByGroupValue: rows come out in the order of
// their group values — numbers as numbers, strings before numbers, column
// by column — not in the order of their encoded keys, where "n:10" sorts
// before "n:9".
func TestFinishPartialsOrdersByGroupValue(t *testing.T) {
	num := func(v float64) core.GroupVal { return core.GroupVal{Num: v} }
	str := func(s string) core.GroupVal { return core.GroupVal{IsStr: true, Str: s} }
	specs := []AggSpec{{Func: AggCount}}
	for _, want := range [][][]core.GroupVal{
		{{num(-1)}, {num(9)}, {num(10)}, {num(100)}},
		{{str("A"), num(9)}, {str("A"), num(10)}, {str("B"), num(1)}},
	} {
		groups := make(map[core.GroupKey]*Partial)
		for _, vals := range want {
			groups[core.MakeGroupKey(vals)] = newGroupAcc(vals, len(specs))
		}
		var got [][]core.GroupVal
		for _, r := range FinishPartials(groups, specs, false) {
			got = append(got, r.Vals)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows in order %v, want %v", got, want)
		}
	}
}
