package cc_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/fuzzgen"
)

var sinkText string

// BenchmarkBuildProgram compiles one generated MiniC+OpenMP program per
// op for 4 cores, as lbp-serve does for every source job it has not
// cached.
func BenchmarkBuildProgram(b *testing.B) {
	var sources []string
	for i := 0; i < 50; i++ {
		sources = append(sources, fuzzgen.Generate(int64(i+1), fuzzgen.GenConfig{}).Render())
	}
	opt := cc.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, err := cc.BuildProgram(sources[i%len(sources)], opt)
		if err != nil {
			b.Fatal(err)
		}
		sinkText = text
	}
}
