package main

import "testing"

func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "op_p50_us", Better: "lower", Bound: 0.08}
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.06}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 120, 95, 130, 70}
	cases := []struct {
		name  string
		def   boundedMetric
		a, b  metric
		exact bool
		want  string
	}{
		{"within the bound", lower, metric{Value: 100, Samples: steady}, metric{Value: 105, Samples: steady}, false, verdictOK},
		{"latency up past the bound", lower, metric{Value: 100, Samples: steady}, metric{Value: 110, Samples: steady}, false, verdictRegressed},
		{"throughput down past the bound", higher, metric{Value: 100, Samples: steady}, metric{Value: 92, Samples: steady}, false, verdictRegressed},
		{"throughput up past the bound", higher, metric{Value: 100, Samples: steady}, metric{Value: 110, Samples: steady}, false, verdictImproved},
		{"spread wider than the bound", lower, metric{Value: 100, Samples: noisy}, metric{Value: 130, Samples: steady}, false, verdictUnresolved},
		{"exact and equal", lower, metric{Value: 7}, metric{Value: 7}, true, verdictOK},
		{"exact and different", lower, metric{Value: 7}, metric{Value: 7.0001}, true, verdictRegressed},
	}
	for _, tc := range cases {
		if got, _ := judge(tc.def, tc.a, tc.b, tc.exact); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
