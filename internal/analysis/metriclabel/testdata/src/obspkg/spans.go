// Span attribute keys share the metric-label cardinality contract: each
// key names a fixed attribute slot in the flight ring and a column in
// the rendered trace tree, so keys must come from const tables, declared
// finite sets, or //mdrep:labelset functions. Values are free data.
package obspkg

import (
	"strconv"

	"obs"
)

const attrUser = "user"

func spanAttrs(id int) {
	sp := obs.StartRoot("walk.estimate")
	sp.Attr(attrUser, int64(id))  // const-table key: allowed
	sp.AttrStr("addr", "mem://x") // literal key, dynamic value: allowed
	key := "k" + strconv.Itoa(id)
	sp.Attr(key, 1)                  // want `label value key is loop or computed data`
	sp.AttrStr(strconv.Itoa(id), "") // want `label value computed by strconv\.Itoa`
	sp.End()
}

// AttrAt is an exported instrumentation boundary: its key parameter is
// trusted here and audited at every caller this analyzer sees.
func AttrAt(sp *obs.Span, key string) {
	sp.Attr(key, 1) // exported-boundary parameter: allowed
}

// attrKey returns one of two keys regardless of input, so the set is
// bounded by construction.
//
//mdrep:labelset
func attrKey(i int) string {
	return [...]string{"rows", "cols"}[i&1]
}

func viaLabelSet(i int) {
	sp := obs.StartRoot("x")
	sp.Attr(attrKey(i), int64(i)) // labelset function: allowed
	sp.End()
}

func forwardKey(sp *obs.Span, key string) {
	sp.AttrStr(key, "v") // unexported forwarder: checked at call sites
}

func driveSpans(sp *obs.Span, payload string) {
	forwardKey(sp, attrUser)      // constant through the forwarder: allowed
	forwardKey(sp, payload+"...") // want `label value payload \+ "\.\.\." is not a constant`
}

func suppressedAttr(sp *obs.Span) {
	k := strconv.Itoa(3)
	sp.Attr(k, 1) //mdrep:allow metriclabel: debug-only span, key set bounded by operator config
}
