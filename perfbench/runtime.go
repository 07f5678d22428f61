package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	mHeap     = "/memory/classes/heap/objects:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mAllocs   = "/gc/heap/allocs:objects"
)

// runtimeStats is the Go runtime's health over one timed window.
type runtimeStats struct {
	peakHeap        uint64
	gcCPU, totalCPU float64
	allocs          uint64
}

func (r runtimeStats) peakHeapMB() float64 { return float64(r.peakHeap) / (1 << 20) }

// metrics reports the window's runtime health under the given name
// prefix, with allocations per op.
func (r runtimeStats) metrics(ops int, prefix string) map[string]metric {
	return map[string]metric{
		prefix + "gc_cpu_share":  {share(r.gcCPU, r.totalCPU), "share"},
		prefix + "allocs_per_op": {share(float64(r.allocs), float64(ops)), "count"},
		prefix + "peak_heap_mb":  {r.peakHeapMB(), "MB"},
	}
}

// window samples runtime/metrics over a timed window: the heap in use
// every millisecond (its peak is the window's peak heap), and the GC CPU
// and allocation counters at both ends.
type window struct {
	start []metrics.Sample
	stop  chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func readSamples() []metrics.Sample {
	s := []metrics.Sample{{Name: mHeap}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mAllocs}}
	metrics.Read(s)
	return s
}

// openWindow starts sampling; close it with (*window).close.
func openWindow() *window {
	w := &window{start: readSamples(), stop: make(chan struct{})}
	w.peak = w.start[0].Value.Uint64()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: mHeap}}
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > w.peak {
					w.peak = v
				}
			}
		}
	}()
	return w
}

// close stops the sampler, waits for it, and returns the window's stats.
func (w *window) close() runtimeStats {
	close(w.stop)
	w.wg.Wait()
	end := readSamples()
	if v := end[0].Value.Uint64(); v > w.peak {
		w.peak = v
	}
	return runtimeStats{
		peakHeap: w.peak,
		gcCPU:    end[1].Value.Float64() - w.start[1].Value.Float64(),
		totalCPU: end[2].Value.Float64() - w.start[2].Value.Float64(),
		allocs:   end[3].Value.Uint64() - w.start[3].Value.Uint64(),
	}
}

// fingerprint identifies the machine and the code under test: CPU
// model, nproc, GOMAXPROCS, Go version, the git revision the binary was
// stamped with (when built inside a git checkout), and a digest of the
// repository's Go sources, which identifies the code when there is no
// git metadata.
func fingerprint(root string) map[string]string {
	fp := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"git_sha":    "unknown",
		"source":     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["git_sha"] = s.Value
			case "vcs.modified":
				fp["git_modified"] = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// hidden directories such as the build output), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
