package colstore

import (
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mistique/internal/codec"
	"mistique/internal/data"
	"mistique/internal/faultfs"
	"mistique/internal/nn"
	"mistique/internal/quant"
)

// benchChunks builds a partition-sized snapshot: 64 LP chunks of 1024
// noisy values each (~128 KiB encoded), the shape a DNN log flush writes.
func benchChunks(b testing.TB) []*chunk {
	rng := rand.New(rand.NewSource(11))
	q := quant.NewLP()
	chunks := make([]*chunk, 64)
	for i := range chunks {
		vals := make([]float32, 1024)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		chunks[i] = &chunk{enc: q.Encode(nil, vals), count: len(vals), q: q}
	}
	return chunks
}

// vgg16Pool2 caches the vgg16pool2 stream across sub-benchmarks and b.N
// rounds: building it runs a VGG16 forward pass.
var vgg16Pool2 struct {
	once   sync.Once
	chunks []*chunk
}

// vgg16Pool2Chunks builds the first partition a POOL2_QT log of a VGG16
// writes: one 256-row RowBlock of data.Images through a fixed-seed
// width-4 nn.VGG16, every layer's activations 2x2 average-pooled and
// stored as raw float32 columns (POOL2_QT keeps full values), in layer
// then column order until the encoded payload reaches the default 4 MiB
// partition target. Its 33 actz blocks are 18 Huffman+shuffle, 5
// LZ+Huffman and 10 sparse+Huffman (the ReLU outputs) — close to the mix
// in the partitions the diag_query benchmark workload writes.
func vgg16Pool2Chunks() []*chunk {
	vgg16Pool2.once.Do(func() {
		const rows, width, seed = 256, 4, 1
		target := Config{}.withDefaults().PartitionTargetBytes
		imgs, _ := data.Images(rows, 10, seed)
		net := nn.VGG16("vgg", 10, width, seed)
		q := quant.NewFull()
		var chunks []*chunk
		var size int64
		cur := imgs
		for _, l := range net.Layers {
			cur = l.Forward(cur)
			act := cur
			if act.H > 1 || act.W > 1 {
				act = quant.Pool(act, 2, quant.Avg)
			}
			m := act.Flatten()
			for j := 0; j < m.Cols && size < target; j++ {
				c := &chunk{enc: q.Encode(nil, m.Col(j)), count: m.Rows, q: q}
				chunks = append(chunks, c)
				size += int64(len(c.enc))
			}
		}
		vgg16Pool2.chunks = chunks
	})
	return vgg16Pool2.chunks
}

// benchStreamChunks builds partition snapshots for each quantized stream
// shape the store writes: "lp" (f16 halves), "kbit" (8-bit quantile bins,
// near max entropy by construction), "threshold" (1-bit activation
// bitmaps at the 99.5th percentile — runs of zeros), and "vgg16pool2"
// (real network activations, see vgg16Pool2Chunks).
func benchStreamChunks(b testing.TB, stream string) []*chunk {
	if stream == "vgg16pool2" {
		return vgg16Pool2Chunks()
	}
	rng := rand.New(rand.NewSource(23))
	vals := make([]float32, 4096)
	chunks := make([]*chunk, 32)
	for i := range chunks {
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		var q *quant.Quantizer
		var err error
		switch stream {
		case "lp":
			q = quant.NewLP()
		case "kbit":
			q, err = quant.FitKBit(vals, 8)
		case "threshold":
			q, err = quant.FitThreshold(vals, 0.995)
		default:
			b.Fatalf("unknown stream %q", stream)
		}
		if err != nil {
			b.Fatal(err)
		}
		chunks[i] = &chunk{enc: q.Encode(nil, vals), count: len(vals), q: q}
	}
	return chunks
}

func benchmarkPartitionWrite(b *testing.B, level int) {
	chunks := benchChunks(b)
	dir := b.TempDir()
	path := filepath.Join(dir, partFileName(0, 0))
	gz, err := codec.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, gz, level); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(st.Size()), "filebytes")
	}
}

func BenchmarkPartitionWrite(b *testing.B) {
	benchmarkPartitionWrite(b, defaultCompressionLevel)
}

// BenchmarkPartitionWriteLevels is the measurement behind the
// defaultCompressionLevel choice (see DESIGN.md "Performance").
func BenchmarkPartitionWriteLevels(b *testing.B) {
	for _, level := range []int{gzip.BestSpeed, gzip.DefaultCompression} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			benchmarkPartitionWrite(b, level)
		})
	}
}

// BenchmarkPartitionWriteCodecs measures flush cost (serialize + compress
// + write + fsync) per codec per stream shape, with the resulting file
// size as the "filebytes" metric — the measurement behind Config.Codec
// guidance in DESIGN.md. The acceptance bar for this PR: actz beats
// gzip(BestSpeed) on both axes for the kbit and threshold streams.
func BenchmarkPartitionWriteCodecs(b *testing.B) {
	for _, stream := range []string{"lp", "kbit", "threshold"} {
		chunks := benchStreamChunks(b, stream)
		for _, name := range []string{"gzip", "store", "actz"} {
			c, err := codec.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("stream=%s/codec=%s", stream, name), func(b *testing.B) {
				dir := b.TempDir()
				path := filepath.Join(dir, partFileName(0, 0))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, c, defaultCompressionLevel); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if st, err := os.Stat(path); err == nil {
					b.ReportMetric(float64(st.Size()), "filebytes")
				}
			})
		}
	}
}

// BenchmarkPartitionReadCodecs measures the cold read (open + decompress
// + checksum-verify + parse) per codec per stream shape; MB/s is over the
// uncompressed partition image.
func BenchmarkPartitionReadCodecs(b *testing.B) {
	for _, stream := range []string{"lp", "kbit", "threshold", "vgg16pool2"} {
		for _, name := range []string{"gzip", "store", "actz"} {
			c, err := codec.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("stream=%s/codec=%s", stream, name), func(b *testing.B) {
				chunks := benchStreamChunks(b, stream)
				dir := b.TempDir()
				path := filepath.Join(dir, partFileName(0, 0))
				_, raw, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, c, defaultCompressionLevel)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(raw)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, _, _, err := readPartitionFile(path, raw)
					if err != nil {
						b.Fatal(err)
					}
					if len(got) != len(chunks) {
						b.Fatalf("read %d chunks, want %d", len(got), len(chunks))
					}
				}
			})
		}
	}
}

func BenchmarkPartitionRead(b *testing.B) {
	chunks := benchChunks(b)
	dir := b.TempDir()
	path := filepath.Join(dir, partFileName(0, 0))
	gz, err := codec.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	_, raw, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, gz, defaultCompressionLevel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, _, err := readPartitionFile(path, raw)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(chunks) {
			b.Fatalf("read %d chunks, want %d", len(got), len(chunks))
		}
	}
}
