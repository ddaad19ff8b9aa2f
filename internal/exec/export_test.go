package exec

import "sma/internal/tuple"

// CollectTuples drains a TupleIter, copying each tuple (scan pipelines
// return tuples that alias their batch buffer).
func CollectTuples(it TupleIter) ([]tuple.Tuple, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []tuple.Tuple
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t.Copy())
	}
}
