package zsimd

import (
	"testing"

	"bulkpreload/internal/engine"
)

// benchResult keeps the benchmarked attempt's result live.
var benchResult engine.Result

// BenchmarkJobAttempt times one job attempt on the worker's path: spec
// decode, engine build, the run itself and a durable checkpoint every
// 200,000 records (the service default). It reports ns per simulated
// record.
//
//	go test -run '^$' -bench JobAttempt -count 5 ./internal/zsimd/
func BenchmarkJobAttempt(b *testing.B) {
	const records = 1_000_000
	s := newTestService(b, Config{Workers: 1})
	defer shutdownNow(b, s)
	job, err := s.Queue().Enqueue("bench", testSpec(records))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchResult, err = s.execute(job, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
