package main

import (
	"context"
	"fmt"
	"time"

	"learnedsqlgen/internal/estimator"
	"learnedsqlgen/internal/nn"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/service"
)

// train-scratch: offline actor–critic training from scratch, then
// generation of trainRows satisfied queries, once per training seed.
const (
	trainScale    = 0.05
	trainWorkers  = 2
	trainEpochs   = 10
	trainEpisodes = 64
	trainRows     = 50
	trainAttempts = 4000
	minTrainSeeds = 3
	// trainSeedsPerSecond sets how many seeds a run trains per second of
	// its length; a fixed count keeps a seed's work independent of how
	// fast the host is.
	trainSeedsPerSecond = 2.4
	trainSetups         = 25
	// trainSLO is the first-row limit of slo_goodput_rps: a job counts as
	// good when its first satisfied query arrives within it.
	trainSLO = 2 * time.Second
	// trainProfiles is how many trained actors the traced run profiles.
	trainProfiles = 3
)

func trainConstraint() rl.Constraint { return rl.RangeConstraint(rl.Cardinality, 10, 500) }

// trainJob is one seed's training run and generation.
type trainJob struct {
	start, first, done time.Time
	trainWall          time.Duration // inside TrainEpochContext
	rollout            float64       // TrainStats.RolloutSeconds after training
	episodes           int
	found, attempts    int
	sqls               []string
	cache              estimator.CacheStats
	actor              *nn.SeqNet // trained policy
}

// runJob trains a fresh trainer on its own copy of the environment (same
// data and estimator, empty cache), so a seed's work does not depend on
// the jobs before it.
func runJob(ctx context.Context, tr *tracer, base *rl.Env, seed int64) (*trainJob, error) {
	cfg := rl.FastConfig()
	cfg.Workers = trainWorkers
	cfg.Seed = seed
	env := base.Clone()
	t := rl.NewTrainer(env, trainConstraint(), cfg)
	job := &trainJob{start: time.Now(), actor: t.Actor()}
	for e := 0; e < trainEpochs; e++ {
		s := tr.begin("rl.train_epoch", span{})
		t0 := time.Now()
		st, err := t.TrainEpochContext(withSpan(ctx, s), trainEpisodes)
		job.trainWall += time.Since(t0)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		job.episodes += st.Episodes
	}
	job.rollout = t.Stats().RolloutSeconds
	g := tr.begin("rl.generate", span{})
	found, attempts, err := t.GenerateSatisfiedStreamContext(withSpan(ctx, g), trainRows, trainAttempts,
		func(gen rl.Generated) error {
			if job.first.IsZero() {
				job.first = time.Now()
			}
			job.sqls = append(job.sqls, gen.SQL)
			return nil
		}, nil)
	tr.end(g)
	job.done = time.Now()
	job.found, job.attempts = found, attempts
	job.cache = env.CacheStats()
	return job, err
}

// trainSeeds fans the run's training seeds out of the workload seed.
func trainSeeds(seed int64, dur time.Duration) []int64 {
	seeds := make([]int64, max(minTrainSeeds, int(trainSeedsPerSecond*dur.Seconds())))
	for i := range seeds {
		seeds[i] = rl.FanSeed(seed, uint64(1000+i))
	}
	return seeds
}

// trainPhase runs one job per seed.
func trainPhase(ctx context.Context, tr *tracer, base *rl.Env, seeds []int64) ([]*trainJob, time.Duration, error) {
	var jobs []*trainJob
	start := time.Now()
	for _, seed := range seeds {
		job, err := runJob(ctx, tr, base, seed)
		if err != nil {
			return nil, 0, err
		}
		jobs = append(jobs, job)
	}
	return jobs, time.Since(start), nil
}

// trainE2E computes the end-to-end metrics of a phase and checks its
// output: every job must find all trainRows queries, and every query must
// re-parse and re-estimate inside the constraint.
func trainE2E(jobs []*trainJob, wall time.Duration, est *estimator.Estimator, out *result) {
	var first, total, accs []float64
	var wallTrain time.Duration
	good, ok, found, episodes := 0, 0, 0, 0
	for _, j := range jobs {
		total = append(total, j.done.Sub(j.start).Seconds())
		if !j.first.IsZero() {
			f := j.first.Sub(j.start)
			first = append(first, ms(f))
			if f <= trainSLO && j.found == trainRows {
				good++
			}
		}
		if j.found == trainRows {
			ok++
		} else {
			out.check(fmt.Errorf("train job found %d of %d satisfied queries", j.found, trainRows))
		}
		found += j.found
		accs = append(accs, ratio(float64(j.found), float64(j.attempts)))
		episodes += j.episodes
		wallTrain += j.trainWall
		for _, sql := range j.sqls {
			out.check(checkRow(est, trainConstraint(), sql))
		}
	}
	totalMs := make([]float64, len(total))
	for i, t := range total {
		totalMs[i] = t * 1e3
	}
	setLatency(out, "first_row", first)
	setLatency(out, "request", totalMs)
	out.set("slo_goodput_rps", "1/s", float64(good)/wall.Seconds())
	out.set("rows_per_s", "1/s", float64(found)/wall.Seconds())
	// The median over seeds: a ratio of sums would follow the few seeds
	// that trained worst and needed the most attempts.
	out.set("accuracy", "ratio", median(accs))
	out.set("success_frac", "ratio", ratio(float64(ok), float64(len(jobs))))
	out.set("time_to_50_satisfied_s", "s", mean(total))
	out.set("episodes_per_s", "1/s", ratio(float64(episodes), wallTrain.Seconds()))
	out.Attempted += len(jobs)
	out.Failed += len(jobs) - ok
	out.note("train-scratch: %d seeds in %.2fs, %d training episodes", len(jobs), wall.Seconds(), episodes)
}

// runTrain runs train-scratch: set-up (repeated, median reported), the
// measured jobs, and in traced runs the same seeds again with tracing on,
// followed by the per-layer analysis.
func runTrain(ctx context.Context, o options) (*result, error) {
	res := newResult()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var ds *service.Dataset
	var setups []float64
	for rep := 0; rep < trainSetups; rep++ {
		t0 := time.Now()
		d, err := service.OpenDataset("tpch", trainScale, 100, rl.FanSeed(o.seed, 1))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ds = d
	}
	res.set("setup_s", "s", median(setups))
	var timed *timedBackend
	if tr != nil {
		timed = &timedBackend{inner: ds.Env.Est, tr: tr}
		ds.Env.SetBackend(timed)
	}

	seeds := trainSeeds(o.seed, o.seconds)
	jobs, wall, err := trainPhase(ctx, nil, ds.Env, seeds)
	if err != nil {
		return nil, err
	}
	trainE2E(jobs, wall, ds.Env.Est, res)
	if !o.trace {
		return res, nil
	}

	timed.on.Store(true)
	tjobs, twall, err := trainPhase(ctx, tr, ds.Env, seeds)
	if err != nil {
		return nil, err
	}
	traced := newResult()
	trainE2E(tjobs, twall, ds.Env.Est, traced)
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	res.set("trace.overhead_frac", "ratio", overhead("time_to_50_satisfied_s", res, traced))

	var trainWall time.Duration
	var rollout float64
	var episodes int
	var cache estimator.CacheStats
	for _, j := range tjobs {
		trainWall += j.trainWall
		rollout += j.rollout
		episodes += j.episodes
		cache.Hits += j.cache.Hits
		cache.Misses += j.cache.Misses
		cache.Evictions += j.cache.Evictions
	}
	batches := float64(episodes) / float64(rl.FastConfig().BatchSize)
	res.set("rl.rollout_share", "ratio", ratio(rollout, trainWall.Seconds()))
	res.set("rl.update_ms_per_batch", "ms", ratio((trainWall.Seconds()-rollout)*1e3, batches))
	res.set("estimator.cache_hit_rate", "ratio", cache.HitRate())
	res.set("estimator.cache_evictions", "count", float64(cache.Evictions))
	res.set("estimator.miss_us", "us", tr.summary()["estimator.miss"].mean().Seconds()*1e6)

	// Profile generation from the trained actors exactly as the service
	// profiles a request: a warm-up run, then the profiled run and replay.
	prof := &samplerProfile{}
	for i, j := range tjobs[:min(trainProfiles, len(tjobs))] {
		env := ds.Env.Clone()
		cfg := rl.FastConfig()
		cfg.Seed = rl.FanSeed(o.seed, uint64(3000+i))
		actor := j.actor
		first, err := sampleDirect(ctx, nil, env, actor, trainConstraint(), cfg, trainRows, trainAttempts)
		if err != nil {
			return nil, err
		}
		run, err := sampleDirect(ctx, tr, env, actor, trainConstraint(), cfg, trainRows, trainAttempts)
		if err != nil {
			return nil, err
		}
		res.check(sameStream("sampler run twice", first.dig, run.dig))
		if err := prof.add(ctx, tr, env, actor, trainConstraint(), cfg, trainAttempts, run); err != nil {
			return nil, err
		}
	}
	prof.layerMetrics(tr, res)
	res.zero("loadgen.late_p99_ms", "loadgen.inflight_max",
		"wire.frames_per_request", "wire.bytes_per_row", "wire.encode_ns_per_frame", "wire.decode_ns_per_frame",
		"service.front_door_ms_per_request", "service.registry_acquire_us", "service.registry_trains",
		"service.registry_evictions", "service.refused", "meta.pretrain_s_per_entry")
	return res, nil
}
