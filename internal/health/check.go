package health

import (
	"errors"
	"time"

	"repro/internal/rpc"
)

// Check pings addr once and reports whether a daemon answered: the
// one-shot reconciliation probe arbiter.Recover uses to tell which
// journaled pool members survived a control-plane blackout. A busy
// (shed) response proves the node alive, exactly as in the prober's
// sweep; only transport failures count as dead. The probe dials a
// dedicated connection with no retries and no breaker so it sees raw
// reachability, and closes it before returning. timeout ≤0 selects the
// prober's default deadline, 500ms.
func Check(addr string, timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	cli := rpc.Dial(addr, 1).WithOptions(rpc.Options{CallTimeout: timeout})
	defer cli.Close()
	resp, err := cli.Call(&rpc.Message{Op: rpc.OpPing})
	if err == nil {
		resp.Release()
		return true
	}
	return errors.Is(err, rpc.ErrBusy)
}
