package testutil

import "testing"

// TestValidateExpositionRejects feeds the strict parser the specific
// malformations the hand-rendered endpoint could produce.
func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no trailing newline":  "# HELP a_total x\n# TYPE a_total counter\na_total 1",
		"sample without TYPE":  "a_total 1\n",
		"TYPE without HELP":    "# TYPE a_total counter\na_total 1\n",
		"HELP after TYPE":      "# TYPE a_total counter\n# HELP a_total x\na_total 1\n",
		"bad metric name":      "# HELP a-b x\n# TYPE a-b counter\na-b 1\n",
		"bad value":            "# HELP a_total x\n# TYPE a_total counter\na_total one\n",
		"duplicate family":     "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n# TYPE a counter\na 2\n",
		"duplicate sample":     "# HELP a x\n# TYPE a counter\na 1\na 2\n",
		"unquoted label":       "# HELP a x\n# TYPE a counter\na{l=v} 1\n",
		"bad escape":           "# HELP a x\n# TYPE a counter\na{l=\"\\t\"} 1\n",
		"foreign sample":       "# HELP a x\n# TYPE a counter\nb_total 1\n",
		"histogram no inf":     "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram no sum":     "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"histogram count skew": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"histogram not cum":    "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"blank line":           "# HELP a x\n# TYPE a counter\n\na 1\n",
		"empty":                "",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: validator accepted malformed input:\n%s", name, in)
		}
	}

	good := "# HELP a_total x\n# TYPE a_total counter\na_total 1\n" +
		"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("validator rejected conforming input: %v", err)
	}
}
