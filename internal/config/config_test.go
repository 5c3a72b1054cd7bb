package config_test

import (
	"testing"

	"secstack/internal/config"
)

func TestDefaultsMatchPaper(t *testing.T) {
	c := config.Resolve(nil)
	if c.Aggregators != 2 || c.MaxThreads != 256 || c.FreezerSpin != 128 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.NoElimination || c.Recycle || c.CollectMetrics {
		t.Fatalf("boolean knobs default on: %+v", c)
	}
	if c.Adaptive {
		t.Fatalf("adaptivity knobs default on: %+v", c)
	}
	if c.Shards != 4 {
		t.Fatalf("Shards default = %d, want 4", c.Shards)
	}
}

func TestOptionsCompose(t *testing.T) {
	c := config.Resolve([]config.Option{
		config.WithAggregators(5),
		config.WithMaxThreads(32),
		config.WithFreezerSpin(0),
		config.WithoutElimination(),
		config.WithRecycling(),
		config.WithMetrics(),
		config.WithShards(2),
		config.WithInitial(-7),
		config.WithAdaptive(true),
		nil, // nil options are tolerated
	})
	if c.Aggregators != 5 || c.MaxThreads != 32 || c.FreezerSpin != 0 {
		t.Fatalf("resolved = %+v", c)
	}
	if !c.NoElimination || !c.Recycle || !c.CollectMetrics {
		t.Fatalf("boolean options dropped: %+v", c)
	}
	if !c.Adaptive {
		t.Fatalf("adaptivity options dropped: %+v", c)
	}
	if c.Shards != 2 || c.Initial != -7 {
		t.Fatalf("resolved = %+v", c)
	}
}

func TestClamping(t *testing.T) {
	c := config.Resolve([]config.Option{
		config.WithAggregators(0),
		config.WithMaxThreads(-3),
		config.WithFreezerSpin(-1),
		config.WithTimestampDelay(-5),
		config.WithBackoff(0, 10),    // rejected: min must be positive
		config.WithElimArray(0, 0),   // rejected wholesale
		config.WithCombinerRounds(0), // rejected
		config.WithServeLimit(-1),    // rejected
	})
	if c.Aggregators != 1 || c.MaxThreads != 1 {
		t.Fatalf("clamps wrong: %+v", c)
	}
	if c.FreezerSpin != 0 || c.TimestampDelay != 0 {
		t.Fatalf("spin clamps wrong: %+v", c)
	}
	d := config.Default()
	if c.BackoffMin != d.BackoffMin || c.ElimArraySize != d.ElimArraySize ||
		c.CombinerRounds != d.CombinerRounds || c.ServeLimit != d.ServeLimit {
		t.Fatalf("invalid options mutated defaults: %+v", c)
	}
}

func TestAdaptiveSpinOption(t *testing.T) {
	if c := config.Resolve(nil); c.AdaptiveSpin {
		t.Fatal("AdaptiveSpin defaults on; the fixed paper backoff must stay the default")
	}
	c := config.Resolve([]config.Option{config.WithAdaptiveSpin(true)})
	if !c.AdaptiveSpin {
		t.Fatal("config.WithAdaptiveSpin(true) not applied")
	}
	if c.FreezerSpin != 128 {
		t.Fatalf("WithAdaptiveSpin changed the spin ceiling to %d, want default 128", c.FreezerSpin)
	}
	if c.FreezerSpinSet {
		t.Fatal("FreezerSpinSet true without WithFreezerSpin (the pool's 0-spin default would be lost)")
	}
	if c := config.Resolve([]config.Option{config.WithFreezerSpin(64)}); !c.FreezerSpinSet || c.FreezerSpin != 64 {
		t.Fatalf("WithFreezerSpin(64) = (%d, set=%v), want (64, true)", c.FreezerSpin, c.FreezerSpinSet)
	}
	c = config.Resolve([]config.Option{config.WithAdaptiveSpin(true), config.WithAdaptiveSpin(false)})
	if c.AdaptiveSpin {
		t.Fatal("config.WithAdaptiveSpin(false) did not override")
	}
}

func TestPutOverflowOption(t *testing.T) {
	if c := config.Resolve(nil); c.PutOverflow != 2 {
		t.Fatalf("PutOverflow default = %d, want 2", c.PutOverflow)
	}
	if c := config.Resolve([]config.Option{config.WithPutOverflow(5)}); c.PutOverflow != 5 {
		t.Fatalf("WithPutOverflow(5) = %d", c.PutOverflow)
	}
	if c := config.Resolve([]config.Option{config.WithPutOverflow(0)}); c.PutOverflow != 0 {
		t.Fatalf("WithPutOverflow(0) = %d, want 0 (disabled)", c.PutOverflow)
	}
	if c := config.Resolve([]config.Option{config.WithPutOverflow(-3)}); c.PutOverflow != 0 {
		t.Fatalf("WithPutOverflow(-3) = %d, want clamp to 0", c.PutOverflow)
	}
}
