package core

import "github.com/hpcautotune/hiperbot/internal/space"

// idMap keys values by configuration identity (space.ID). A grid-index
// ID names exactly one configuration, so for those it is a plain map
// lookup. A hashed ID can be shared by distinct configurations: a hit
// on one is confirmed by comparing configurations, and an entry whose
// ID is already held by a different configuration chains in a side
// map, so two configurations are never merged. cfg recovers the
// configuration an entry stands for.
type idMap[V any] struct {
	m     map[space.ID]V
	chain map[space.ID][]V // colliding hashed-ID entries; nil until one occurs
	cfg   func(V) space.Config
}

func newIDMap[V any](size int, cfg func(V) space.Config) idMap[V] {
	return idMap[V]{m: make(map[space.ID]V, size), cfg: cfg}
}

// get returns the value stored for c, whose ID is id.
func (t *idMap[V]) get(id space.ID, c space.Config) (V, bool) {
	v, ok := t.m[id]
	if !ok || !id.Hashed() || t.cfg(v).Equal(c) {
		return v, ok
	}
	for _, w := range t.chain[id] {
		if t.cfg(w).Equal(c) {
			return w, true
		}
	}
	var zero V
	return zero, false
}

// find returns an entry with ID id that satisfies match, whatever
// configuration it stands for.
func (t *idMap[V]) find(id space.ID, match func(V) bool) (V, bool) {
	if v, ok := t.m[id]; ok && match(v) {
		return v, true
	}
	for _, w := range t.chain[id] {
		if match(w) {
			return w, true
		}
	}
	var zero V
	return zero, false
}

// has reports whether c (whose ID is id) has an entry.
func (t *idMap[V]) has(id space.ID, c space.Config) bool {
	_, ok := t.get(id, c)
	return ok
}

// set stores v for c, replacing c's previous value.
func (t *idMap[V]) set(id space.ID, c space.Config, v V) {
	if t.m == nil {
		t.m = make(map[space.ID]V)
	}
	old, ok := t.m[id]
	if !ok || !id.Hashed() || t.cfg(old).Equal(c) {
		t.m[id] = v
		return
	}
	ws := t.chain[id]
	for i, w := range ws {
		if t.cfg(w).Equal(c) {
			ws[i] = v
			return
		}
	}
	if t.chain == nil {
		t.chain = make(map[space.ID][]V)
	}
	t.chain[id] = append(ws, v)
}

// del removes c's entry, reporting whether there was one.
func (t *idMap[V]) del(id space.ID, c space.Config) bool {
	v, ok := t.m[id]
	if !ok {
		return false
	}
	ws := t.chain[id]
	if !id.Hashed() || t.cfg(v).Equal(c) {
		if len(ws) == 0 {
			delete(t.m, id)
			return true
		}
		t.m[id] = ws[len(ws)-1] // promote a chained entry
	} else {
		i := 0
		for i < len(ws) && !t.cfg(ws[i]).Equal(c) {
			i++
		}
		if i == len(ws) {
			return false
		}
		ws[i] = ws[len(ws)-1]
	}
	if ws = ws[:len(ws)-1]; len(ws) == 0 {
		delete(t.chain, id)
	} else {
		t.chain[id] = ws
	}
	return true
}

// len returns the number of entries.
func (t *idMap[V]) len() int {
	n := len(t.m)
	for _, ws := range t.chain {
		n += len(ws)
	}
	return n
}

// configSet is a set of configurations keyed by identity, for
// deduplicating draws.
type configSet struct {
	sp *space.Space
	idMap[space.Config]
}

func newConfigSet(sp *space.Space, size int) *configSet {
	return &configSet{sp: sp, idMap: newIDMap(size, func(c space.Config) space.Config { return c })}
}

// add inserts c, reporting false when it was already present.
func (s *configSet) add(c space.Config) bool {
	id := s.sp.ID(c)
	if s.has(id, c) {
		return false
	}
	s.set(id, c, c)
	return true
}

// remove deletes c, reporting whether it was present.
func (s *configSet) remove(c space.Config) bool { return s.del(s.sp.ID(c), c) }
