package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"learnedsqlgen/internal/nn"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/sqlast"
)

// samplerProfile attributes direct sampler time to the layers below it.
// Each profiled request runs once under an rl.sampler span (estimator
// misses nest under it through ctx), then its exact episodes are sampled
// again with SampleBatch and replayed call by call through the FSM
// builder, the actor and the estimator, each call under its own span.
type samplerProfile struct {
	requests        int
	found, attempts int
	episodes        uint64
	tokens          int
	prefixHits      uint64
	prefixMisses    uint64
	measures        uint64
}

// directRun is one request served straight from a sampler.
type directRun struct {
	dig             digest
	found, attempts int
	took            time.Duration
	stats           rl.TrainStats
	measures        uint64 // env.Measure calls during the run
}

// sampleDirect serves one request from a fresh sampler over actor, under
// an rl.sampler span that estimator misses nest under through ctx.
func sampleDirect(ctx context.Context, tr *tracer, env *rl.Env, actor *nn.SeqNet,
	c rl.Constraint, cfg rl.Config, n, maxAttempts int) (directRun, error) {
	run := directRun{dig: newDigest()}
	sampler := rl.NewSampler(env, c, cfg)
	m0 := env.Measures()
	t0 := time.Now()
	s := tr.begin("rl.sampler", spanFrom(ctx))
	found, attempts, err := sampler.StreamSatisfied(withSpan(ctx, s), actor, n, maxAttempts,
		func(g rl.Generated) error { run.dig.add(g.SQL, g.Measured); return nil }, nil)
	tr.end(s)
	run.took = time.Since(t0)
	run.found, run.attempts = found, attempts
	run.stats = sampler.Stats()
	run.measures = env.Measures() - m0
	return run, err
}

// add records a profiled run and replays its episodes. The caller ran the
// identical request once before, so the profiled run saw the same warm
// estimator cache as any repeated request, and nothing else measured
// through env while it ran.
func (p *samplerProfile) add(ctx context.Context, tr *tracer, env *rl.Env, actor *nn.SeqNet,
	c rl.Constraint, cfg rl.Config, maxAttempts int, run directRun) error {
	p.requests++
	p.found += run.found
	p.attempts += run.attempts
	p.episodes += run.stats.Episodes
	p.prefixHits += run.stats.PrefixHits
	p.prefixMisses += run.stats.PrefixMisses
	p.measures += run.measures

	// StreamSatisfied samples whole batches of at most BatchSize episodes,
	// so the same chunking over a fresh sampler with the same seed yields
	// the same episodes.
	replay := rl.NewSampler(env, c, cfg)
	ws := nn.NewWorkspace(nil)
	rs := tr.begin("replay", span{})
	defer tr.end(rs)
	for done := 0; done < int(run.stats.Episodes); {
		chunk := min(cfg.BatchSize, maxAttempts-done)
		batch, err := replay.SampleBatchContext(ctx, actor, actor.BOS(), chunk, false, false)
		if err != nil {
			return err
		}
		for _, traj := range batch {
			if err := p.replayEpisode(ctx, tr, rs, env, actor, ws, c.Metric, traj); err != nil {
				return err
			}
		}
		done += chunk
	}
	return nil
}

// replayEpisode re-walks one trajectory through each layer in the order the
// sampler calls them, and fails if any layer disagrees with the recording.
func (p *samplerProfile) replayEpisode(ctx context.Context, tr *tracer, parent span, env *rl.Env,
	actor *nn.SeqNet, ws *nn.Workspace, m rl.Metric, traj *rl.Trajectory) error {
	b := env.NewBuilder()
	state := actor.NewState()
	in := actor.BOS()
	for _, step := range traj.Steps {
		s := tr.begin("fsm.valid", parent)
		valid := b.Valid()
		tr.end(s)
		if !slices.Equal(valid, step.Valid) {
			return fmt.Errorf("replay: FSM mask differs from the recorded episode")
		}
		s = tr.begin("nn.step", parent)
		actor.StepMaskedInto(ws, state, in, valid, false, nil)
		tr.end(s)
		s = tr.begin("fsm.apply", parent)
		err := b.Apply(step.Action)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("replay: FSM rejects a recorded action: %w", err)
		}
		s = tr.begin("fsm.snapshot", parent)
		snap, ok := b.Snapshot()
		tr.end(s)
		if ok {
			if err := measureSpan(ctx, tr, parent, env, snap, m); err != nil {
				return err
			}
		}
		in = step.Action
		p.tokens++
	}
	s := tr.begin("fsm.snapshot", parent)
	final, err := b.Statement()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replay: finished episode has no statement: %w", err)
	}
	if err := measureSpan(ctx, tr, parent, env, final, m); err != nil {
		return err
	}
	if got, want := final.SQL(), traj.Final.SQL(); got != want {
		return fmt.Errorf("replay: statement %q differs from the recorded %q", got, want)
	}
	return nil
}

// measureSpan measures st under an estimator.measure span. Estimation
// refusals are the environment's normal feedback, not failures.
func measureSpan(ctx context.Context, tr *tracer, parent span, env *rl.Env, st sqlast.Statement, m rl.Metric) error {
	s := tr.begin("estimator.measure", parent)
	env.MeasureContext(withSpan(ctx, s), st, m)
	tr.end(s)
	return ctx.Err()
}

// layerMetrics attributes the profiled sampler time to the fsm, nn and
// estimator layers and reports the remainder as rl.unattributed_frac.
func (p *samplerProfile) layerMetrics(tr *tracer, out *result) {
	sum := tr.summary()
	sampler := sum["rl.sampler"].total
	missN, missT := tr.childrenOf("estimator.miss", "rl.sampler")
	valid, apply, snap := sum["fsm.valid"], sum["fsm.apply"], sum["fsm.snapshot"]
	step, meas := sum["nn.step"], sum["estimator.measure"]

	// Per-call costs come from the replay. A measure span's self time
	// excludes any miss beneath it, so self/count is the cost of a hit.
	// The sampler computed only the actor steps its prefix trie missed.
	tokens := float64(p.tokens)
	validNs := ratio(float64(valid.total), tokens)
	applyNs := ratio(float64(apply.total), tokens)
	hitNs := ratio(float64(meas.self), float64(meas.count))
	fsmT := tokens*(validNs+applyNs) + float64(snap.total)
	nnT := float64(p.prefixMisses) * float64(step.mean())
	estT := float64(p.measures)*hitNs + float64(missT)

	out.set("rl.sampler_ms_per_request", "ms", ratio(sampler.Seconds()*1e3, float64(p.requests)))
	out.set("rl.attempts_per_row", "count", ratio(float64(p.attempts), float64(p.found)))
	out.set("rl.prefix_hit_rate", "ratio", ratio(float64(p.prefixHits), float64(p.prefixHits+p.prefixMisses)))
	out.set("rl.episodes_per_s", "1/s", ratio(float64(p.episodes), sampler.Seconds()))
	out.set("rl.unattributed_frac", "ratio", 1-ratio(fsmT+nnT+estT, float64(sampler)))
	out.set("nn.actor_step_ns", "ns", float64(step.mean()))
	out.set("nn.actor_steps_per_episode", "count", ratio(float64(p.prefixMisses), float64(p.episodes)))
	out.set("fsm.valid_ns_per_token", "ns", validNs)
	out.set("fsm.apply_ns_per_token", "ns", applyNs)
	out.set("estimator.measures_per_episode", "count", ratio(float64(p.measures), float64(p.episodes)))
	out.note("layers: sampler %.1f ms over %d requests, %d episodes, %d tokens = fsm %.1f + nn %.1f (%d steps) + estimator %.1f (%d measures, %d misses %.1f) + unattributed ms",
		sampler.Seconds()*1e3, p.requests, p.episodes, p.tokens, fsmT/1e6, nnT/1e6, p.prefixMisses,
		estT/1e6, p.measures, missN, missT.Seconds()*1e3)
}
