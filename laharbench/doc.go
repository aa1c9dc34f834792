// Command laharbench is the repository's benchmark. It drives the lahar
// store through three closed-loop workloads whose inputs are generated from
// a seed, checks the answers, and prints every end-to-end metric by name
// and unit; with -trace 1 it replays the same request scripts layer by
// layer and prints the per-layer metrics instead.
//
// Run it from the root of the source tree; run.sh builds it into
// .bench_build and passes the flags on:
//
//	bash laharbench/run.sh --workload append-rank --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics. The lines before it, each
// starting with "#", are run metadata: seed, commit, source digest, Go
// version, GOMAXPROCS and nproc, sample counts, per-segment values, and the
// time of a fixed cache-resident calibration loop before and after the run.
// The calibration time is never a metric; it marks runs that fell inside a
// neighbour's burst. The traced run writes its spans (pass, name, request,
// id, parent, start, end) as JSON lines under .bench_build/spans.
//
// # Workloads
//
// Each workload is a closed loop with one client goroutine, because lahar is
// an in-process store whose callers block on each call. The benchmark sets
// GOMAXPROCS to 1, so the collector and the watchers' pump goroutines share
// the client's processor rather than run beside it only while the shared
// host leaves the second vCPU free. Open-loop rate objectives stay with
// internal/slo. Every request within a
// workload is of one kind, so no percentile falls between operation
// classes. All inputs come from the RFID model of rfid.Hospital(4, 2) and
// the place query triggered by the lab.
//
// A workload's script is cut into epochs. Stream state is replaced between
// epochs, outside the timed requests, so the state a run holds does not
// grow with the number of requests that fitted in. The inputs repeat after
// a fixed number of epochs, and those epochs make a segment of at least
// 1000 requests: every segment of a run does the same work on the same
// inputs (fresh objects each time), starts from a fresh set-up, and a run
// ends on a segment boundary.
//
// append-rank: 4 streams start at n = 100. A request appends one event to
// the next stream, round robin, then calls TopKCtx(1) and TopKCtx(10). Each
// stream lives for an epoch of 25 appends and is then replaced by a fresh
// 100-position trace and drained once, so the next epoch's first append
// again extends a warm engine. Ten epochs, 40 traces, make a segment. It is
// the streaming loop the store exists for: most of its work is the
// engine-cache extension, ExtendValidated, the ranked carry across appends
// and the extendable evaluator's retained state. A single evaluator mode or
// a memory budget will show here.
//
// cold-rank: 8 streams of 40 positions. Before each request, untimed, a
// sequence object the store has never seen replaces the next stream (a
// reused object would keep its cached sparse view and skip work a new
// stream pays for). The request calls TopKCtx(1), TopKCtx(10) and
// ConfidenceCtx on every answer, the answers with their confidence of the
// paper's §2.3.1. Every request misses the engine cache and drains from an
// empty tree, sharing no work with any other: it prices bind, the cold drain
// and the Thm 4.6 DP, and a change that only touches the carry leaves it
// flat. An epoch, and a segment, is 1000 requests on 1000 different traces,
// generated anew for every request.
//
// ingest-watch: 8 streams, each fed raw RFID readings by a WithFixedLag(4)
// Ingester and watched by one WatchSlidingTopK(32, 1, 3). After a
// 200-reading history, a request is one reading on the next stream; it ends
// when that stream's new window delta is received. An epoch, and a segment,
// is 500 readings per stream, after which the store is rebuilt and the same
// histories and readings replayed. This is the store's path through the
// pruned kernel, the hmm smoother, markov windowing and the sliding-window
// aggregation; it bypasses the engine cache, the ranked carry and the
// evaluator modes. Its requests take under a millisecond, so a fixed
// per-call cost such as tracing or locking shows here first.
//
// # End-to-end metrics
//
// They come from the untraced run only.
//
//   - setup_s: time from an empty store, inputs already generated, to ready:
//     registration, loading or ingesting the streams, first drains and
//     subscription catch-up. The store is set up at least five times and
//     for at least two seconds before the timed phase, and once more before
//     every segment after the first; the value a tenth of the set-ups
//     exceed is reported, read from the slow end like the latencies,
//     because single set-ups drift by 6–20% and with the machine's speed.
//   - latency_p50_ms, latency_p99_ms: request latency by nearest rank, over
//     the run's slow stretches (below). They hold at least 2000 requests,
//     so the p99 has twenty samples beyond it.
//   - first_p50_ms: time until the k=1 answer returns, over the same
//     requests. On ingest-watch a delta carries all of its answers at once,
//     so it equals latency_p50_ms.
//   - throughput_rps: those requests per second of time spent in them.
//   - heap_live_mb: live heap after runtime.GC, with the store still
//     referenced, at the end of every epoch; the median over them, because
//     the state an epoch retains depends on its traces. It includes the
//     benchmark's own record of about 24 bytes per request.
//
// Slow stretches. The machine this was tuned on has two speeds (see Noise
// below): neighbours slow the same code 1.6–1.9× for stretches of seconds
// to many minutes, and a 40 s run can fall wholly in either. A run's
// requests are cut, in the order they ran, into windows of 100; the slowest
// tenth of the windows by median latency, and at least 20 of them, are
// pooled, and the latency metrics are taken over the pooled requests. Nearly
// every run holds a tenth of slowed windows, so the pool reads the slowed
// level whether the run was mostly quiet or mostly slowed; the run's overall
// quantiles report how much of it was quiet. A change that makes the
// requests slower shows in the pool as it would in the whole run. The
// per-segment p50, p99 and first-answer p50 are printed as metadata.
// Attempted and failed requests are reported per run; an error or a wrong
// answer is a failure.
//
// Answers are checked on every run. Every request checks that its top-1 is
// the head of its top-k, and every 97th request's answers (outputs and score
// bits) are compared with a reference built from public functions after the
// timed phase: on append-rank a fresh core.PrepareTransducer(q).
// BindValidated(snapshot) drain, bit-identical scores and answers
// set-identical within exact tie classes; on cold-rank the same plus
// conf.DetDense confidences within 1e-12; on ingest-watch WindowEval.TopK
// over a fresh core.Prepared.Windows sweep of the stream, taken at the end
// of each epoch because the next one replaces the stream.
//
// # Traced run and per-layer metrics
//
// The traced run replays each workload's script from the same seed once
// per layer: pass A through the lahar calls above; pass B doing lahar's part
// itself through the core, markov and hmm entry points; pass C calling the
// ranked and kernel entry points. Every epoch runs four times in a row,
// each from the epoch's start and a collected heap — untraced, A, B, C,
// reversed on odd epochs — so the runs a self time subtracts are seconds
// apart. Spans are recorded from this package's own files around the calls
// into each layer and kept in memory until exit. A layer's self time is
// its pass's root span minus the next pass's root span for the same
// request; this approximates nested spans until the layers trace
// themselves. The tracing overhead is pass A's median latency minus the
// untraced run's. The answers of all four runs must agree request by
// request, bit for bit.
//
// Three modules get no timing of their own: lawler runs inside ranked, so
// its heap time lands in ranked.next_ms; conf is bypassed, because core
// calls the kernel DP directly; transducer.Preprocess runs once, in
// set-up. Timings are medians per request; counts are mean increments per
// request, taken between readings at the request's start and end, since
// the counters restart whenever their owner — cached engine, enumerator,
// sweeper — is replaced.
//
//	metric                        how, from outside                                          should move
//	lahar.topk_ms                 A: the two DB.TopKCtx calls                                latency_p50_ms, append-rank and cold-rank
//	lahar.append_ms               A: DB.AppendEventsCtx                                      first_p50_ms, append-rank
//	lahar.conf_ms                 A: DB.ConfidenceCtx on every answer                        latency_p50_ms, cold-rank
//	lahar.ingest_ms               A: Ingester.AppendObs (smoothing, append, watcher advance) latency_p50_ms, ingest-watch
//	lahar.deliver_ms              A: AppendObs returning to the delta received (pump)        latency_p50_ms, ingest-watch
//	lahar.self_ms                 A minus B, same request (the unattributed remainder)       latency_p50_ms, ingest-watch first
//	lahar.extensions_per_req      DB.Stats().Extensions (1 expected on append-rank)          first_p50_ms, append-rank
//	lahar.misses_per_req          DB.Stats().Misses (1 expected on cold-rank)                first_p50_ms, cold-rank
//	core.extend_ms                B: Prepared.ExtendValidated(prev, m)                       first_p50_ms, append-rank
//	core.bind_ms                  B: Prepared.ExtendValidated(nil, m)                        first_p50_ms, cold-rank
//	core.first_ms                 B: Engine.TopKCtx(ctx, 1)                                  first_p50_ms, append-rank and cold-rank
//	core.rest_ms                  B: Engine.TopKCtx(ctx, 10) after the probe                 latency_p50_ms, append-rank and cold-rank
//	core.conf_ms                  B: Engine.ConfidenceCtx on every answer                    latency_p50_ms, cold-rank
//	core.window_ms                B: StreamRun.Extend + Next + WindowEval.TopK               latency_p50_ms, ingest-watch
//	core.self_ms                  B minus C, same request                                    the parent row's metric
//	ranked.carry_ms               C: ranked.ExtendEnumerator(prev, m, 1)                     first_p50_ms, append-rank
//	ranked.next_ms                C: Enumerator.NextCtx for every answer (Lawler heap,       latency_p50_ms, append-rank and cold-rank
//	                              resolves; on cold-rank with NewEnumerator)
//	ranked.sweep_ms               C: Sweeper.TopK on the window                              latency_p50_ms, ingest-watch
//	ranked.reseeded_per_req       Enumerator.ExtendStats                                     first_p50_ms, append-rank
//	ranked.reused_per_req         same (10 expected: no carried answer is re-resolved)       first_p50_ms, append-rank
//	kernel.bounds_ms              C: kernel.NewBounds on the window view, after the request  latency_p50_ms, ingest-watch
//	kernel.gate_ms                C: windower extension and the SWAG gate's next window      latency_p50_ms, ingest-watch
//	kernel.conf_ms                C: kernel.DetConfidenceCtx on every answer                 latency_p50_ms, cold-rank
//	kernel.resolves_per_req       PruneStats.Resolves (Sweeper on ingest-watch; Engine       latency_p50_ms, all three
//	                              elsewhere, 0 while appended-to engines run unpruned)
//	kernel.visited_cells_per_req  PruneStats.VisitedCells                                    latency_p50_ms, all three
//	kernel.pruned_pct             pruned ÷ (pruned + visited) cells                          latency_p50_ms, ingest-watch
//	kernel.layers_per_handle      LazyLayers ÷ LazyHandles                                   latency_p50_ms, ingest-watch
//	markov.extend_us              B: Sequence.Extended per event                             throughput_rps, ingest-watch and append-rank
//	hmm.observe_us                B: FixedLagSmoother.Observe per reading                    throughput_rps, ingest-watch
//	runtime.alloc_kb_per_req      /gc/heap/allocs:bytes inside the untraced requests         latency_p99_ms and throughput_rps, all three
//	runtime.gc_cpu_pct            /cpu/classes/gc/total:cpu-seconds ÷ wall time of them      latency_p99_ms, append-rank; heap_live_mb
//	trace.overhead_ms, _pct       A's median latency minus the untraced run's                the traced run's own cost
//
// A workload reports 0 for the layers it does not exercise.
//
// # Measurements behind the design
//
// Retention. The default AppendEvents→TopK path keeps about 4 MB live per
// appended event per stream, growing superlinearly: one stream starting at
// n = 200 held about 200 MB after 50 appends, 1 GB after 200 and 4 GB after
// 400, and 4 streams × 250 appends reached 6.1 GB. Replacing each stream
// after 25 appends held 394–401 MB over three runs (p50 5.5–5.9 ms, p99
// 41–46 ms, 123–128 requests/s), which is why append-rank has epochs; no
// workload's live heap reaches 1 GB.
//
// Noise. The machines this runs on are 2-vCPU KVM guests (Intel Xeon, 2 MiB
// L2 per core, a 300 MiB last-level cache shared with other tenants). A
// register-only loop repeats within 3% and the guest sees under 1% steal,
// but a pointer chase through a working set that lives in L2 or in the
// shared cache does not: over 40 s of 50 ms blocks, the ninth decile over
// the first was 1.3× for 256 KiB, 1.7× for 1 MiB and 2.1× for 4 MiB, against
// 1.15× for 16 MiB and 1.1× for 64 MiB, which miss the cache either way.
// Neighbours contend for the cache, not for time, and both vCPUs are alike
// (a 4 MiB chase alternating between them: medians 39.6 and 38.8 ms). The
// benchmark's requests work in exactly that range. Their slowed level is
// 1.6–1.9× the quiet one, and the state lasts from seconds to many minutes:
// one set of runs spent its first ten minutes mostly slowed and the next ten
// mostly quiet. Within a slowed stretch there is no quiet gap
// to be found even per request: in a run all of whose segments were slowed,
// each ingest-watch request's fastest of 14 repeats still gave a median of
// 0.44 ms, against 0.25–0.28 ms in runs with a quiet stretch. So no summary
// of a run can recover the quiet level from a slowed run; what repeats is
// the slowed level, which nearly every run visits. Over ten runs across such
// a change of state, the quartile distance over the median was 0.27–0.35 on
// append-rank and 0.20–0.30 on cold-rank for segments summarised at their
// ninth tenth, and an earlier cut with short segments summarised by their
// quiet twentieth spread by up to 45%. Pooling the slowest tenth of
// 100-request windows, over ten runs: at most 0.17 on append-rank, 0.12 on
// cold-rank and 0.10 on ingest-watch; the runs that still read low fell
// almost wholly in a quiet stretch. Hence the
// slow stretches, one processor, the set-ups spread through the run, the
// calibration metadata and the interleaved passes of the traced run.
//
// Counters. lahar binds every transducer engine through
// core.Prepared.ExtendValidated, which selects the extendable evaluator, the
// one that runs without pruning; so the pruning counters read 0 on both
// ranked workloads, and pruning runs only in the sliding-window
// ranked.Sweeper, at windows of at least kernel.BoundsMinN positions. The
// ranked counters of DB.Stats are snapshots of the live cache that vanish
// on invalidation, and the watch path leaves DB.Stats and ServeStats at
// zero; hence per-request deltas, and the replay to attribute time on the
// watch path.
//
// # What an earlier design got wrong
//
// An earlier version of this benchmark was rejected as too noisy: on
// identical code its medians moved by up to 7.6%. It mixed operation
// classes in one workload, so its p95 (17 ms) fell between classes whose
// p50 was 0.42 ms; it searched for a capacity instead of measuring a fixed
// closed loop; it timed a single short set-up; and it let the appended
// state grow without bound, to a 1 GB live heap.
package main
