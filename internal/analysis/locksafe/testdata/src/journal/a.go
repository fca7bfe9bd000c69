// Positive fixture: package path "journal" gets no exemption. The
// durable engine routes through core.Sharded, so direct engine use there
// is flagged like anywhere else outside the core.
package journal

import "core"

func Replay(events []float64) *core.Engine {
	eng := core.NewEngine(len(events), core.Config{})
	for i, v := range events {
		_ = eng.ApplyEvent(i, v) // want `direct \(\*core\.Engine\)\.ApplyEvent outside the core`
	}
	return eng
}
