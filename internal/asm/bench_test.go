package asm_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/fuzzgen"
)

// benchPrograms is the per-job front-end input of a served fuzzgen
// job: generated MiniC+OpenMP programs compiled for 4 cores, as
// assembly text, as assembled programs and as serialized images.
type benchPrograms struct {
	sources []string // MiniC
	texts   []string // cc.BuildProgram output
	progs   []*asm.Program
	images  [][]byte
}

const benchProgramCount = 50

func loadBenchPrograms(b *testing.B) *benchPrograms {
	b.Helper()
	bp := &benchPrograms{}
	for i := 0; i < benchProgramCount; i++ {
		src := fuzzgen.Generate(int64(i+1), fuzzgen.GenConfig{}).Render()
		text, err := cc.BuildProgram(src, cc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		prog, err := asm.Assemble(text, asm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var img bytes.Buffer
		if err := prog.WriteImage(&img); err != nil {
			b.Fatal(err)
		}
		bp.sources = append(bp.sources, src)
		bp.texts = append(bp.texts, text)
		bp.progs = append(bp.progs, prog)
		bp.images = append(bp.images, img.Bytes())
	}
	return bp
}

var sinkProgram *asm.Program

// BenchmarkReadImage decodes one image per op, as a worker does for
// every dispatched job.
func BenchmarkReadImage(b *testing.B) {
	bp := loadBenchPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := asm.ReadImage(bytes.NewReader(bp.images[i%len(bp.images)]))
		if err != nil {
			b.Fatal(err)
		}
		sinkProgram = p
	}
}

// BenchmarkWriteImage serializes one program per op, as the
// coordinator does to ship a job and sim.CacheKey does to hash it.
func BenchmarkWriteImage(b *testing.B) {
	bp := loadBenchPrograms(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := bp.progs[i%len(bp.progs)].WriteImage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble assembles one compiled program per op.
func BenchmarkAssemble(b *testing.B) {
	bp := loadBenchPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := asm.Assemble(bp.texts[i%len(bp.texts)], asm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sinkProgram = p
	}
}
