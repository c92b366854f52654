package wisdom

import (
	"context"
	"sync"
	"testing"
	"time"
)

// The streaming benchmarks measure what a
// streaming client experiences — time to the first delta (reported as
// ttft-ns/op) — against the total generation latency (ns/op), on the same
// model the unary benchmark runs. The point of streaming is the gap
// between the two: the first committed line leaves the decode loop long
// before the last token lands.

var (
	benchStreamOnce  sync.Once
	benchStreamModel *Model
)

func benchModel(b *testing.B) *Model {
	b.Helper()
	benchStreamOnce.Do(func() { benchStreamModel = streamTestModel(b) })
	return benchStreamModel
}

// BenchmarkPredictStream runs the streamed prediction path end to end;
// ns/op is the full generation, ttft-ns/op the wait for the first delta
// (the prompt-derived name line, emitted before decoding starts), and
// first-body-ns/op the wait for the first *generated* delta — the honest
// time-to-first-token of the model itself.
func BenchmarkPredictStream(b *testing.B) {
	m := benchModel(b)
	ctx := context.Background()
	var ttft, firstBody time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		n := 0
		m.PredictStream(ctx, "", "Install nginx", func(string) {
			n++
			switch n {
			case 1:
				ttft += time.Since(start)
			case 2:
				firstBody += time.Since(start)
			}
		})
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(ttft.Nanoseconds())/float64(b.N), "ttft-ns/op")
		b.ReportMetric(float64(firstBody.Nanoseconds())/float64(b.N), "first-body-ns/op")
	}
}

// BenchmarkPredictUnary is the buffered baseline on the same model: the
// client sees nothing until the whole answer is ready, so its effective
// time-to-first-byte IS the total latency.
func BenchmarkPredictUnary(b *testing.B) {
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict("", "Install nginx")
	}
}
