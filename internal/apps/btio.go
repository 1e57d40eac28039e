package apps

import (
	"fmt"
	"time"

	"repro/internal/pfs"
	"repro/internal/units"
)

// BTIO reproduces the NAS BT-IO benchmark's I/O behaviour in its MPI-IO
// "full" (collective buffering) mode: after every five time steps the
// entire solution array is appended to a single shared file, with the
// scattered data gathered on a subset of aggregator ranks that issue
// large contiguous requests (the paper measured 1.34–5.35 MB MPI-IO and
// 5.23–12.31 MB POSIX requests for classes C and D). At the end, the file
// is read back for verification, as BT-IO's verify phase does.
type BTIO struct {
	Label string
	// Ranks is the client process count (a square number in real BT).
	Ranks int
	// DumpBytes is the solution size appended per dump.
	DumpBytes int64
	// Dumps is the number of write phases (steps/5; 40 for 200 steps).
	Dumps int
	// RequestSize is the aggregated POSIX request size.
	RequestSize int64
	// Verify re-reads the whole file at the end.
	Verify bool
}

// Name implements Kernel.
func (k BTIO) Name() string { return k.Label }

// Run implements Kernel.
func (k BTIO) Run(fs pfs.FileSystem, dir string) (Report, error) {
	if k.Ranks <= 0 || k.DumpBytes <= 0 || k.Dumps <= 0 || k.RequestSize <= 0 {
		return Report{}, fmt.Errorf("apps: invalid BT-IO config %+v", k)
	}
	start := time.Now()
	path := pathFor(dir, k.Label+".btio")
	if err := fs.Create(path); err != nil {
		return Report{}, err
	}
	aggs := k.Ranks / 8
	if aggs < 1 {
		aggs = 1
	}
	var wrote, read int64
	for d := 0; d < k.Dumps; d++ {
		base := int64(d) * k.DumpBytes
		span := k.DumpBytes / int64(aggs)
		err := runRanks(aggs, func(a int) error {
			lo := base + int64(a)*span
			hi := lo + span
			if a == aggs-1 {
				hi = base + k.DumpBytes
			}
			buf := make([]byte, k.RequestSize)
			fill(buf, byte(d+a))
			for off := lo; off < hi; off += k.RequestSize {
				n := k.RequestSize
				if off+n > hi {
					n = hi - off
				}
				if _, err := fs.Write(path, off, buf[:n]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Report{}, err
		}
		wrote += k.DumpBytes
	}
	if k.Verify {
		total := int64(k.Dumps) * k.DumpBytes
		span := total / int64(aggs)
		err := runRanks(aggs, func(a int) error {
			lo := int64(a) * span
			hi := lo + span
			if a == aggs-1 {
				hi = total
			}
			buf := make([]byte, k.RequestSize)
			for off := lo; off < hi; off += k.RequestSize {
				n := k.RequestSize
				if off+n > hi {
					n = hi - off
				}
				got, err := fs.Read(path, off, buf[:n])
				if err := verifyShort(got, n, err); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Report{}, err
		}
		read = total
	}
	return report(k.Label, k.Ranks, wrote, read, time.Since(start)), nil
}

// DefaultBTIO is BT-C: 128 processes, 6.3 GB written over 40 dumps with
// ≈5 MiB aggregated requests, verified by a full read-back — at
// 1/DefaultScale volume.
func DefaultBTIO() BTIO {
	return BTIO{
		Label: "BT-C", Ranks: 128,
		DumpBytes:   int64(6.3e9) / 40 / DefaultScale,
		Dumps:       40,
		RequestSize: 5 * units.MiB / DefaultScale * 8,
		Verify:      true,
	}
}
