// Stale-epoch fencing: the response class an I/O node returns when a
// write arrives stamped with a mapping epoch that a control-plane
// recovery has revoked. Like a busy shed, a fenced write is NOT a
// transport failure — the exchange completed, the connection is healthy,
// and the breaker records a success. It is also not an ordinary
// application error: the write was refused before touching the backend,
// so the forwarding layer's correct move is to wait for a mapping newer
// than the one it routed under and re-route (remap-and-retry), falling
// back to the direct PFS path if none arrives in time. The client
// surfaces it as an *Error of ClassFenced carrying the node's fence floor.
package rpc

import (
	"errors"
	"fmt"
)

// ErrStaleEpoch matches (errors.Is) a write the server fenced: stamped with
// a revoked mapping epoch.
var ErrStaleEpoch = errors.New(staleEpochText)

// staleEpochText opens the Message.Err of every fenced response; the client
// recognises a fenced response by it, in one place (Client.attempt).
const staleEpochText = "rpc: stale epoch"

// StaleEpochErrText renders the Message.Err string a server puts on a
// fenced response.
func StaleEpochErrText(epoch, fence uint64) string {
	return fmt.Sprintf("%s: write epoch %d below fence %d", staleEpochText, epoch, fence)
}
