package space

import "testing"

// FuzzSpaceFromJSON: arbitrary JSON must yield an error or a usable
// space — never a panic.
func FuzzSpaceFromJSON(f *testing.F) {
	f.Add(`[{"name":"a","kind":"discrete","levels":["x","y"]}]`)
	f.Add(`[{"name":"c","kind":"continuous","lo":0,"hi":1}]`)
	f.Add(`[{"name":"n","kind":"discrete","levels":["1","2"],"numeric":[1,2]}]`)
	f.Add(`[]`)
	f.Add(`{`)
	f.Add(`[{"name":"a","kind":"discrete","levels":["x"]},{"name":"a","kind":"discrete","levels":["y"]}]`)
	f.Fuzz(func(t *testing.T, data string) {
		defer func() {
			// New panics on duplicate names; treat that as rejection,
			// but any other panic is a bug.
			if r := recover(); r != nil {
				if s, ok := r.(string); !ok || !containsSubstring(s, "duplicate parameter name") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}
		}()
		sp, err := SpaceFromJSON([]byte(data))
		if err != nil {
			return
		}
		// Usable: sampling and key generation must work.
		if sp.AllDiscrete() {
			_ = sp.GridSize()
		}
		c := make(Config, sp.NumParams())
		for i := 0; i < sp.NumParams(); i++ {
			p := sp.Param(i)
			if p.Kind == ContinuousKind {
				c[i] = p.Lo
			}
		}
		_ = sp.Key(c)
	})
}

func containsSubstring(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
