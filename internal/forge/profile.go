package forge

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fwd"
	"repro/internal/pattern"
	"repro/internal/pfs"
	"repro/internal/units"
)

// ProfileRequest is one I/O request of an application profile — the unit
// FORGE replays. A profile captures what an application does without
// running the application itself.
type ProfileRequest struct {
	Rank   int
	Path   string
	Offset int64
	Size   int64
	Op     pattern.Operation
}

// BuildProfile synthesizes the request stream of an access pattern for the
// given total volume, laid out under dir:
//
//   - file-per-process: each rank streams its own file sequentially;
//   - shared contiguous: rank r owns the r-th contiguous segment of one
//     file and streams it;
//   - shared 1D-strided: rank r owns every P-th block of one file.
//
// Requests are emitted in per-rank program order; ranks interleave at
// replay time, as on a real machine.
func BuildProfile(p pattern.Pattern, totalBytes int64, dir string) ([]ProfileRequest, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	procs := p.Processes()
	perRank := totalBytes / int64(procs)
	if perRank < p.RequestSize {
		perRank = p.RequestSize // at least one request per rank
	}
	reqsPerRank := perRank / p.RequestSize
	var out []ProfileRequest
	for r := 0; r < procs; r++ {
		for i := int64(0); i < reqsPerRank; i++ {
			req := ProfileRequest{Rank: r, Size: p.RequestSize, Op: p.Operation}
			switch {
			case p.Layout == pattern.FilePerProcess:
				req.Path = fmt.Sprintf("%s/rank%05d", dir, r)
				req.Offset = i * p.RequestSize
			case p.Spatiality == pattern.Contiguous:
				req.Path = dir + "/shared"
				req.Offset = int64(r)*perRank + i*p.RequestSize
			default: // 1D-strided
				req.Path = dir + "/shared"
				req.Offset = (i*int64(procs) + int64(r)) * p.RequestSize
			}
			out = append(out, req)
		}
	}
	return out, nil
}

// ReplayReport summarizes a profile replay.
type ReplayReport struct {
	Requests  int
	Bytes     int64
	Elapsed   time.Duration
	Bandwidth units.Bandwidth
}

// Replay issues a profile against fs, one goroutine per rank, each rank in
// program order — FORGE's execution model. Write payloads are synthesized;
// reads must find the data present (replay a write profile first, as FORGE
// does for read phases).
func Replay(fs pfs.FileSystem, profile []ProfileRequest) (ReplayReport, error) {
	if len(profile) == 0 {
		return ReplayReport{}, fmt.Errorf("forge: empty profile")
	}
	byRank := map[int][]ProfileRequest{}
	maxSize := int64(0)
	for _, r := range profile {
		byRank[r.Rank] = append(byRank[r.Rank], r)
		if r.Size > maxSize {
			maxSize = r.Size
		}
	}
	// When the target supports per-rank attribution (the Darshan-style
	// tracer), give each rank its own stream identity.
	type ranked interface {
		ForRank(rank int) pfs.FileSystem
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(byRank))
	for rank, reqs := range byRank {
		wg.Add(1)
		go func(rank int, reqs []ProfileRequest) {
			defer wg.Done()
			fs := fs
			if rv, ok := fs.(ranked); ok {
				fs = rv.ForRank(rank)
			}
			buf := make([]byte, maxSize)
			for i := range buf {
				buf[i] = byte(rank + i)
			}
			for _, q := range reqs {
				var err error
				if q.Op == pattern.Read {
					_, err = fs.Read(q.Path, q.Offset, buf[:q.Size])
				} else {
					_, err = fs.Write(q.Path, q.Offset, buf[:q.Size])
				}
				if err != nil {
					errs <- fmt.Errorf("forge: rank %d %s @%d: %w", rank, q.Path, q.Offset, err)
					return
				}
			}
		}(rank, reqs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return ReplayReport{}, err
	}
	rep := ReplayReport{Requests: len(profile), Elapsed: time.Since(start)}
	for _, q := range profile {
		rep.Bytes += q.Size
	}
	rep.Bandwidth = units.Over(rep.Bytes, rep.Elapsed)
	return rep, nil
}

// IONReplay is one point of a live sweep: the profile replayed on IONs
// I/O nodes.
type IONReplay struct {
	IONs int
	ReplayReport
}

// ReplaySweep replays p's profile of volume bytes at each I/O-node count
// pattern.IONOptions offers up to len(addrs) — FORGE's deployment
// exploration on a live stack. Each run lays its profile out under
// dir/<k> and issues it through a fresh forwarding client routed over the
// first k of addrs; k = 0 writes straight to direct.
func ReplaySweep(direct pfs.FileSystem, addrs []string, p pattern.Pattern, volume int64, dir string) ([]IONReplay, error) {
	var out []IONReplay
	for _, k := range pattern.IONOptions(p.Nodes, len(addrs), true) {
		prof, err := BuildProfile(p, volume, fmt.Sprintf("%s/%d", dir, k))
		if err != nil {
			return nil, err
		}
		client, err := fwd.NewClient(fwd.Config{AppID: fmt.Sprintf("replay%s/%d", dir, k), Direct: direct})
		if err != nil {
			return nil, err
		}
		client.SetIONs(addrs[:k])
		rep, err := Replay(client, prof)
		client.Close()
		if err != nil {
			return nil, fmt.Errorf("forge: replay on %d I/O nodes: %w", k, err)
		}
		out = append(out, IONReplay{IONs: k, ReplayReport: rep})
	}
	return out, nil
}
