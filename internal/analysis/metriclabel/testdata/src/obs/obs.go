// Package obs is a fixture stand-in for mdrep/internal/obs: the
// metriclabel analyzer recognises the span attribute setters by
// receiver type name and package suffix.
package obs

type Span struct{}

func StartRoot(name string) Span { return Span{} }

func (t *Span) Attr(key string, v int64) {}
func (t *Span) AttrStr(key, val string)  {}
func (t *Span) End()                     {}
