package remote

import (
	"testing"

	"repro/internal/testguard"
)

func TestMain(m *testing.M) { testguard.Main(m) }
