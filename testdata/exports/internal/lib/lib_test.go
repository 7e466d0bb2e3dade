package lib

import "testing"

func TestTop(t *testing.T) {
	if Top() != 2 {
		t.Fatal("Top")
	}
}
