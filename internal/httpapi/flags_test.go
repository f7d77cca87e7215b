package httpapi

import (
	"reflect"
	"testing"
)

func TestParseGroups(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"", nil},
		{" ; , ", nil},
		{"a,b;c", [][]string{{"a", "b"}, {"c"}}},
		{" a , b ; c,d,e ", [][]string{{"a", "b"}, {"c", "d", "e"}}},
	}
	for _, tc := range cases {
		if got := ParseGroups(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseGroups(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
