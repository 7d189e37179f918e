package server

import (
	"runtime/metrics"

	"goalrec"
)

// startBlock is the "start" block of /v1/metrics: what the process had done
// when its first /readyz answered 200 — the snapshot and source I/O of its
// start (goalrec.IOStats), what it had allocated and collected, and its page
// faults. Every field is a count; none is a time.
type startBlock struct {
	goalrec.IOStats
	HeapAllocBytes   uint64 `json:"heap_alloc_bytes"`
	HeapAllocObjects uint64 `json:"heap_alloc_objects"`
	GCCycles         uint64 `json:"gc_cycles"`
	// MinorFaults and MajorFaults are the process's page faults
	// (getrusage), 0 where the platform does not report them.
	MinorFaults int64 `json:"minor_faults"`
	MajorFaults int64 `json:"major_faults"`
}

// readStart takes the counters of a startBlock now.
func readStart() *startBlock {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	b := &startBlock{
		IOStats:          goalrec.ReadIOStats(),
		HeapAllocBytes:   samples[0].Value.Uint64(),
		HeapAllocObjects: samples[1].Value.Uint64(),
		GCCycles:         samples[2].Value.Uint64(),
	}
	b.MinorFaults, b.MajorFaults = pageFaults()
	return b
}
