// Positive fixture: package path "rpc" (the shared TCP transport) is in
// faultwrap's RPC-boundary set, so unclassified transport errors are
// flagged.
package rpc

import (
	"errors"
	"fmt"

	"fault"
)

func call(addr string, err error) error {
	if err != nil {
		return fault.Unreachable(fmt.Errorf("dial %s: %w", addr, err)) // tagged: allowed
	}
	return errors.New("recv from " + addr) // want `errors\.New crosses the RPC boundary unclassified`
}
