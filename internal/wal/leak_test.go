package wal

import (
	"testing"

	"github.com/wustl-adapt/hepccl/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
