package surf

import "testing"

func TestTestOnly(t *testing.T) { Used{}.TestOnly() }
