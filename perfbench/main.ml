(* End-to-end benchmark of the optimize, serve and execute paths.

   Usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Each workload runs as a closed loop with one client on one domain: the
   next operation starts when the previous one returns.  Operations are
   grouped in rounds that repeat the same inputs; the timed phase runs whole
   rounds until [--seconds] of operation time have elapsed.  Outputs are
   checked after each round with the clock stopped.  The last line of
   standard output is one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. *)

module Query = Ljqo_catalog.Query
module Rng = Ljqo_stats.Rng
module Benchmark = Ljqo_querygen.Benchmark
module Methods = Ljqo_core.Methods
module Optimizer = Ljqo_core.Optimizer
module Plan = Ljqo_core.Plan
module Plan_cost = Ljqo_cost.Plan_cost
module Service = Ljqo_service.Service
module Plan_cache = Ljqo_service.Plan_cache
module Fingerprint = Ljqo_service.Fingerprint
module Online = Ljqo_learn.Online
module Router = Ljqo_learn.Router
module Feedback = Ljqo_feedback.Feedback
module Relation_data = Ljqo_exec.Relation_data
module Obs = Ljqo_obs.Obs
module Samples = Measure.Samples

let model : Ljqo_cost.Cost_model.t = (module Ljqo_cost.Memory_model)

(* Seed derivation: every input stream is a pure function of a seed and a
   stream number. *)
let mix a b =
  let z = ref ((a * 0x2545F4914F6CDD1D) lxor (b + 0x1E3779B97F4A7C15)) in
  z := (!z lxor (!z lsr 31)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 33)) land max_int

(* The query suites are fixed: they come from [suite_seed], not from the
   workload seed.  A query's cost over its lower bound spans orders of
   magnitude from one query to the next, so a suite drawn anew per seed, of
   the size a run can optimize, would move every figure by more than any
   change to the program.  The workload seed drives the optimizer seeds:
   those of every operation, and the service seed from which the serving
   layer derives each query's optimizer seed. *)
let suite_seed = 42

(* ------------------------------------------------------------------ *)
(* Metrics.                                                             *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "op/s");
    ("latency_ms_p50", "ms");
    ("latency_ms_p95", "ms");
    ("plan_cost_over_bound", "x");
    ("alloc_mwords_per_op", "Mword/op");
    ("peak_rss_mb", "MiB");
  ]

let methods_rotation = Methods.[ IAI; IAL; AGI; KBI; II; SA; Two_phase ]

let method_metric m = Printf.sprintf "optimize.%s_ms_p50" (Methods.name m)

let per_layer_units =
  [
    ("querygen.generate_ms", "ms/query");
    ("relation_data.generate_ms", "ms/query");
    ("qdl.parse_us_p50", "us");
    ("fingerprint.compute_us_p50", "us");
    ("plan_cache.lookup_us_p50", "us");
    ("plan_cache.exact_hits", "count");
    ("plan_cache.misses", "count");
    ("plan_cache.evictions", "count");
    ("router.decide_us_p50", "us");
    ("router.fallbacks", "count");
    ("online.refreshes", "count");
    ("online.refresh_ms_total", "ms");
    ("online.refresh_ms_max", "ms");
    ("search.ticks_per_s", "tick/s");
    ("search.words_per_tick", "word/tick");
    ("search.neighbors_per_s", "1/s");
  ]
  @ List.map (fun m -> (method_metric m, "ms")) methods_rotation
  @ [
      ("augmentation.states_ms", "ms/query");
      ("kbz.states_ms", "ms/query");
      ("plan_cost.eval_us", "us");
      ("executor.rows_per_s", "1/s");
      ("executor.probes_per_s", "1/s");
      ("executor.words_per_row", "word/row");
      ("executor.truncations", "count");
      ("feedback.measure_us_p50", "us");
      ("feedback.qerror_geomean", "x");
      ("gc.minor_per_op", "count/op");
      ("gc.major_per_op", "count/op");
      ("host.probe_ms", "ms");
    ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

let median_of s =
  if Samples.length s = 0 then 0.0 else Ljqo_stats.Summary.median (Samples.to_array s)

let geomean xs = if Array.length xs = 0 then 0.0 else Ljqo_stats.Summary.geometric_mean xs

(* ------------------------------------------------------------------ *)
(* Failure accounting.                                                  *)

(* Every operation is attempted once; it fails when it raises or when one
   of its outputs fails a check. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few, for standard error *)
}

let tally = { attempted = 0; failed = 0; errors = [] }

let fail msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 20 then tally.errors <- msg :: tally.errors

let expect_ok label = function Ok () -> () | Error e -> fail (label ^ ": " ^ e)

(* Rounds repeat the same inputs and seeds, so their results must match. *)
let differs_from_round_0 = "result differs from round 0 on the same inputs and seeds"

(* Runs [f] as one attempted operation; an exception is kept as its
   outcome and counted when the round is checked. *)
let attempt f =
  tally.attempted <- tally.attempted + 1;
  try Ok (f ()) with e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* The timed phase.                                                     *)

(* Time spent in calls the traced run adds purely to measure a layer, and
   the collections they cause; both are taken out of the phase's figures. *)
let probe_ns = ref 0
let probe_minor_gcs = ref 0
let probe_major_gcs = ref 0

let timed_probe f =
  let g0 = Gc.quick_stat () in
  let t0 = Measure.now_ns () in
  let x = f () in
  probe_ns := !probe_ns + (Measure.now_ns () - t0);
  let g1 = Gc.quick_stat () in
  probe_minor_gcs := !probe_minor_gcs + (g1.minor_collections - g0.minor_collections);
  probe_major_gcs := !probe_major_gcs + (g1.major_collections - g0.major_collections);
  x

let time_ms f =
  let t0 = Measure.now_ns () in
  let x = f () in
  (x, float_of_int (Measure.now_ns () - t0) /. 1e6)

(* Latency of one operation, in ms, pushed onto [lat]. *)
let timed_op lat f =
  let p0 = !probe_ns in
  let t0 = Measure.now_ns () in
  let x = f () in
  let ns = Measure.now_ns () - t0 - (!probe_ns - p0) in
  Samples.push lat (float_of_int ns /. 1e6);
  x

type phase = {
  ops : int;
  rounds : int;
  wall_s : float;
  latencies_ms : float array;
  words_per_op : float;
      (** minor words per operation over the rounds after the first, which
          repeat the same work exactly; the first round also pays one-time
          initialisation.  Round 0's figure when it is the only round. *)
  minor_gcs : int;
  major_gcs : int;  (** collections during the rounds, probes excluded *)
}

(* Every run completes at least this many operations, so that at least ten
   latencies lie beyond the 95th percentile. *)
let min_ops = 200

(* Run whole rounds until [seconds] of operation time have elapsed and at
   least [min_ops] operations are done.  [round r lat] performs round [r]'s
   operations, pushing one latency per operation; [check r] verifies them
   with the clock stopped, and its time, allocation and collections are
   left out.  The observability counters start from zero here. *)
let timed_phase ~seconds ~round ~check =
  let lat = Samples.create ~capacity:(1 lsl 17) () in
  let wall_ns = ref 0 and rounds = ref 0 in
  let words = ref 0.0 and words_ops = ref 0 in
  let minor_gcs = ref 0 and major_gcs = ref 0 in
  Obs.reset ();
  while Samples.length lat < min_ops || float_of_int !wall_ns /. 1e9 < seconds do
    probe_ns := 0;
    probe_minor_gcs := 0;
    probe_major_gcs := 0;
    let ops0 = Samples.length lat in
    let g0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    let t0 = Measure.now_ns () in
    round !rounds lat;
    let t1 = Measure.now_ns () in
    let w1 = Gc.minor_words () in
    let g1 = Gc.quick_stat () in
    wall_ns := !wall_ns + (t1 - t0 - !probe_ns);
    minor_gcs :=
      !minor_gcs + (g1.minor_collections - g0.minor_collections - !probe_minor_gcs);
    major_gcs :=
      !major_gcs + (g1.major_collections - g0.major_collections - !probe_major_gcs);
    if !rounds = 1 then begin
      words := 0.0;
      words_ops := 0
    end;
    words := !words +. (w1 -. w0);
    words_ops := !words_ops + (Samples.length lat - ops0);
    check !rounds;
    incr rounds
  done;
  {
    ops = Samples.length lat;
    rounds = !rounds;
    wall_s = float_of_int !wall_ns /. 1e9;
    latencies_ms = Samples.to_array lat;
    words_per_op = !words /. float_of_int !words_ops;
    minor_gcs = !minor_gcs;
    major_gcs = !major_gcs;
  }

(* Set-up runs at least five times and until it has taken a second (at
   most 25 times); its median is reported and the last run's inputs are
   used. *)
let repeated_setup f =
  let times = Samples.create () and env = ref None in
  while
    Samples.length times < 5
    || (Samples.sum times < 1.0 && Samples.length times < 25)
  do
    let x, ms = time_ms f in
    env := Some x;
    Samples.push times (ms /. 1e3)
  done;
  (median_of times, Option.get !env)

let counter name =
  Option.value (List.assoc_opt name (Obs.snapshot ()).counters) ~default:0

let hist_p50_us name =
  match List.assoc_opt name (Obs.snapshot ()).hists with
  | Some h when Ljqo_obs.Hist.count h > 0 ->
    float_of_int (Ljqo_obs.Hist.quantile h 0.5) /. 1e3
  | _ -> 0.0

(* Queries for a (spec index, join count) grid, with the mean time the
   generator took per query. *)
let generate_queries grid =
  let gen_ms = ref 0.0 in
  let qs =
    Array.mapi
      (fun j (spec, n) ->
        let rng = Rng.create (mix suite_seed j) in
        let q, ms =
          time_ms (fun () ->
              Benchmark.generate_query (Benchmark.by_index spec) ~n_joins:n ~rng)
        in
        gen_ms := !gen_ms +. ms;
        q)
      grid
  in
  (qs, !gen_ms /. float_of_int (Array.length qs))

type report = {
  setup_s : float;
  phase : phase;
  cost_ratios : float array;  (** cost / lower bound of round 0's operations *)
  layers : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* query -> plan                                                        *)

type opt_op = { query : Query.t; method_ : Methods.t; ticks : int; seed : int }

let opt_ops ~seed ~t_factor qs method_of =
  Array.mapi
    (fun j q ->
      {
        query = q;
        method_ = method_of j;
        ticks = Optimizer.time_limit_ticks ~t_factor ~query:q ();
        seed = mix seed (100_000 + j);
      })
    qs

let op_label r j op =
  Printf.sprintf "round %d op %d (%s, N=%d)" r j (Methods.name op.method_)
    (Query.n_relations op.query - 1)

(* Layer figures of the traced run, for every workload that optimizes. *)
type search_trace = {
  opt_ms : Samples.t;  (** optimize wall time per operation *)
  mutable ticks : int;
  mutable words : float;
  evals_us : Samples.t;
  aug_ms : Samples.t;
  kbz_ms : Samples.t;
  by_method : (Methods.t, Samples.t) Hashtbl.t;
}

let search_trace () =
  {
    opt_ms = Samples.create ();
    ticks = 0;
    words = 0.0;
    evals_us = Samples.create ();
    aug_ms = Samples.create ();
    kbz_ms = Samples.create ();
    by_method = Hashtbl.create 8;
  }

(* The heuristics' full state generation and a full re-cost of the plan,
   timed apart from the optimization. *)
let probe_layers tr (op : opt_op) plan =
  let q = op.query in
  let _, ms = time_ms (fun () -> Plan_cost.eval model q plan) in
  Samples.push tr.evals_us (ms *. 1e3);
  let _, ms =
    time_ms (fun () ->
        List.iter
          (fun start ->
            ignore
              (Ljqo_core.Augmentation.generate q
                 Ljqo_core.Augmentation.default_criterion ~start))
          (Ljqo_core.Augmentation.starts q))
  in
  Samples.push tr.aug_ms ms;
  let _, ms =
    time_ms (fun () ->
        let tree = Ljqo_core.Kbz.spanning_tree q Ljqo_core.Kbz.default_weighting in
        for root = 0 to Query.n_relations q - 1 do
          ignore (Ljqo_core.Kbz.optimal_for_root q ~tree ~root)
        done)
  in
  Samples.push tr.kbz_ms ms

let optimize_op ?trace (op : opt_op) =
  let run () =
    Optimizer.optimize ~method_:op.method_ ~model ~ticks:op.ticks ~seed:op.seed
      op.query
  in
  match trace with
  | None -> run ()
  | Some tr ->
    let w0 = Gc.minor_words () in
    let r, ms = time_ms run in
    tr.words <- tr.words +. (Gc.minor_words () -. w0);
    tr.ticks <- tr.ticks + r.ticks_used;
    Samples.push tr.opt_ms ms;
    (match Hashtbl.find_opt tr.by_method op.method_ with
    | Some s -> Samples.push s ms
    | None ->
      let s = Samples.create () in
      Samples.push s ms;
      Hashtbl.replace tr.by_method op.method_ s);
    timed_probe (fun () -> probe_layers tr op r.plan);
    r

let search_layers tr =
  let opt_s = Samples.sum tr.opt_ms /. 1e3 in
  [
    ("search.ticks_per_s", ratio (float_of_int tr.ticks) opt_s);
    ("search.words_per_tick", ratio tr.words (float_of_int tr.ticks));
    ( "search.neighbors_per_s",
      ratio (float_of_int (counter "search.neighbors_evaluated")) opt_s );
    ("plan_cost.eval_us", median_of tr.evals_us);
    ("augmentation.states_ms", median_of tr.aug_ms);
    ("kbz.states_ms", median_of tr.kbz_ms);
  ]
  @ List.map
      (fun m ->
        ( method_metric m,
          match Hashtbl.find_opt tr.by_method m with
          | Some s -> median_of s
          | None -> 0.0 ))
      methods_rotation

(* Queries small enough for the exact optimum to be a cheap check. *)
let exhaustive_max_relations = 11

(* The optimize workloads; [setup] returns one round of operations. *)
let optimize_workload ~seconds ~trace ~setup =
  let setup_s, (ops, gen_ms) = repeated_setup setup in
  let k = Array.length ops in
  let tr = if trace then Some (search_trace ()) else None in
  let results = Array.make k (Error "not run") and first = Array.make k None in
  let round _ lat =
    Array.iteri
      (fun j op ->
        results.(j) <-
          attempt (fun () -> timed_op lat (fun () -> optimize_op ?trace:tr op)))
      ops
  in
  let check r =
    Array.iteri
      (fun j res ->
        let op = ops.(j) in
        let label = op_label r j op in
        match res with
        | Error e -> fail (label ^ ": " ^ e)
        | Ok (res : Optimizer.result) -> (
          let before = tally.failed in
          expect_ok label (Check.plan_and_cost ~model op.query res.plan ~cost:res.cost);
          if tally.failed = before then
            match first.(j) with
            | None ->
              first.(j) <- Some res;
              if Query.n_relations op.query <= exhaustive_max_relations then begin
                let ex =
                  Ljqo_core.Exhaustive.optimize ~max_relations:exhaustive_max_relations
                    model op.query
                in
                if res.cost < ex.cost *. (1.0 -. 1e-9) then
                  fail
                    (Printf.sprintf "%s: cost %.17g below the exact optimum %.17g" label
                       res.cost ex.cost)
              end
            | Some f ->
              if not (Plan.equal f.plan res.plan && f.cost = res.cost) then
                fail (label ^ ": " ^ differs_from_round_0)))
      results;
    Array.fill results 0 k (Error "not run")
  in
  let phase = timed_phase ~seconds ~round ~check in
  let cost_ratios =
    Array.of_list
      (List.concat
         (List.mapi
            (fun j r ->
              match r with
              | Some (r : Optimizer.result) ->
                [ r.cost /. Plan_cost.lower_bound model ops.(j).query ]
              | None -> [])
            (Array.to_list first)))
  in
  let layers =
    ("querygen.generate_ms", gen_ms)
    :: (match tr with Some tr -> search_layers tr | None -> [])
  in
  { setup_s; phase; cost_ratios; layers }

(* The paper's ten benchmarks at N = 10..50, two queries per (spec, N),
   with the methods rotating per query. *)
let paper_optimize ~seed ~seconds ~trace =
  let setup () =
    let grid =
      Array.init 100 (fun j -> (j / 5 mod 10, 10 * (1 + (j mod 5))))
    in
    let qs, gen_ms = generate_queries grid in
    let rot = Array.of_list methods_rotation in
    (opt_ops ~seed ~t_factor:9.0 qs (fun j -> rot.(j mod Array.length rot)), gen_ms)
  in
  optimize_workload ~seconds ~trace ~setup

(* Default-benchmark queries past the two inline bitset words: 16 at each
   N = 150, 160, ..., 200, every method at every N. *)
let wide_optimize ~seed ~seconds ~trace =
  let setup () =
    let grid = Array.init 96 (fun j -> (0, 150 + (10 * (j mod 6)))) in
    let qs, gen_ms = generate_queries grid in
    let rot = Methods.[| IAI; II; Two_phase |] in
    (opt_ops ~seed ~t_factor:1.0 qs (fun j -> rot.(j / 6 mod 3)), gen_ms)
  in
  optimize_workload ~seconds ~trace ~setup

(* ------------------------------------------------------------------ *)
(* request -> response                                                  *)

let serve_pool = 500
let serve_requests = 4000
let serve_zipf = 0.6
let serve_cache_capacity = 320

(* The request stream: pool query [i] (its popularity rank) appears
   [max 1 (round (count * w_i))] times, with [w_i] proportional to
   [1 / (i + 1) ** s], in an order shuffled by [rng].  The stream is part
   of the fixed suite: the adaptive router's online refreshes train on the
   samples served so far, and some orders of the same requests settle on
   cheaper, worse routes than others, which moves throughput by half. *)
let zipf_stream ~rng ~pool ~s ~count =
  let w = Array.init pool (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let stream =
    Array.concat
      (List.init pool (fun i ->
           let share = float_of_int count *. w.(i) /. total in
           Array.make (max 1 (Float.to_int (Float.round share))) i))
  in
  for i = Array.length stream - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = stream.(i) in
    stream.(i) <- stream.(j);
    stream.(j) <- t
  done;
  stream

(* Layer figures of the traced serve run. *)
type serve_trace = {
  parse_us : Samples.t;
  fp_us : Samples.t;
  decide_us : Samples.t;
  eval_us : Samples.t;  (** a full re-cost of each response's plan *)
  refresh_ms : Samples.t;  (** [Online.await] at each epoch boundary *)
  mutable cold_ms : float;
  mutable cold_ticks : int;
}

let serve_repeat ~seed ~seconds ~trace =
  let setup () =
    let grid = Array.init serve_pool (fun j -> (0, 10 + (j mod 31))) in
    let qs, gen_ms = generate_queries grid in
    let texts = Array.map Ljqo_qdl.Printer.to_string qs in
    let stream =
      zipf_stream ~rng:(Rng.create (mix suite_seed 7)) ~pool:serve_pool ~s:serve_zipf
        ~count:serve_requests
    in
    let samples =
      Ljqo_learn.Dataset.collect ~jobs:1 ~spec_indices:[ 0 ] ~ns:[ 10; 20; 30; 40 ]
        ~per_n:1 ~seed:(mix suite_seed 11) ~t_factor:1.0
        ~routes:Ljqo_learn.Model.routes ~fractions:Router.fractions ~model ()
    in
    (texts, stream, Ljqo_learn.Model.train samples, gen_ms)
  in
  let setup_s, (texts, stream, router_model, gen_ms) = repeated_setup setup in
  (* The checkers' own copy of each request's query. *)
  let queries = Array.map Ljqo_qdl.Parser.parse texts in
  let config =
    {
      Service.default_config with
      method_ = Methods.Adaptive;
      budget = Service.Time_limit { t_factor = 1.0; kappa = None };
      seed = mix seed 13;
    }
  in
  let n = Array.length stream in
  let tr =
    {
      parse_us = Samples.create ();
      fp_us = Samples.create ();
      decide_us = Samples.create ();
      eval_us = Samples.create ();
      refresh_ms = Samples.create ();
      cold_ms = 0.0;
      cold_ticks = 0;
    }
  in
  let responses = Array.make n (Error "not run") and first = Array.make n None in
  let cache_stats = ref None and fallbacks = ref 0 and refreshes = ref 0 in
  (* One request as [ljqo serve] handles it, with dense request ids.  The
     traced run first awaits the request's routing model itself, so that an
     epoch boundary's retraining is timed on its own, and times extra
     fingerprint, routing and costing calls as probes. *)
  let request learn svc k qi =
    if trace then begin
      let m, ms = time_ms (fun () -> Online.await learn ~id:k) in
      if k > 0 && k mod Online.epoch_size learn = 0 then Samples.push tr.refresh_ms ms;
      timed_probe (fun () ->
          let q = queries.(qi) in
          let _, ms = time_ms (fun () -> Fingerprint.compute q) in
          Samples.push tr.fp_us (ms *. 1e3);
          Option.iter
            (fun m ->
              let ticks = Optimizer.time_limit_ticks ~t_factor:1.0 ~query:q () in
              let _, ms = time_ms (fun () -> Router.decide m q ~ticks) in
              Samples.push tr.decide_us (ms *. 1e3))
            m)
    end;
    let q, ms = time_ms (fun () -> Ljqo_qdl.Parser.parse texts.(qi)) in
    if trace then Samples.push tr.parse_us (ms *. 1e3);
    let d = Service.serve_direct ~learn_id:k svc q in
    if trace then
      timed_probe (fun () ->
          let _, ms = time_ms (fun () -> Plan_cost.eval model q d.d_plan) in
          Samples.push tr.eval_us (ms *. 1e3));
    d
  in
  let round r lat =
    let learn = Online.create ?initial:router_model () in
    let svc = Service.create ~cache_capacity:serve_cache_capacity ~learn config in
    Array.iteri
      (fun k qi ->
        let p0 = !probe_ns and t0 = Measure.now_ns () in
        responses.(k) <-
          attempt (fun () -> timed_op lat (fun () -> request learn svc k qi));
        match responses.(k) with
        | Ok d when trace && d.Service.d_source = Service.Cold ->
          let ns = Measure.now_ns () - t0 - (!probe_ns - p0) in
          tr.cold_ms <- tr.cold_ms +. (float_of_int ns /. 1e6);
          tr.cold_ticks <- tr.cold_ticks + d.d_ticks_used
        | _ -> ())
      stream;
    if r = 0 then begin
      cache_stats := Some (Plan_cache.stats (Service.cache svc));
      fallbacks := counter "learn.route.fallback";
      refreshes := counter "learn.model_refreshes"
    end
  in
  let check r =
    let book = Check.Serve_book.create () in
    Array.iteri
      (fun k res ->
        let qi = stream.(k) in
        let label = Printf.sprintf "round %d request %d (query %d)" r k qi in
        match res with
        | Error e -> fail (label ^ ": " ^ e)
        | Ok (d : Service.direct) -> (
          let before = tally.failed in
          if d.d_timed_out then fail (label ^ ": deadlined");
          expect_ok label
            (Check.plan_and_cost ~model queries.(qi) d.d_plan ~cost:d.d_cost);
          expect_ok label
            (Check.Serve_book.record book ~query:qi
               ~exact_hit:(d.d_source = Service.Exact_hit) d.d_plan);
          if tally.failed = before then
            match first.(k) with
            | None -> first.(k) <- Some d
            | Some f ->
              let same =
                f.d_source = d.d_source && f.d_plan = d.d_plan && f.d_cost = d.d_cost
              in
              if not same then fail (label ^ ": " ^ differs_from_round_0)))
      responses;
    Array.fill responses 0 n (Error "not run")
  in
  let phase = timed_phase ~seconds ~round ~check in
  let cost_ratios =
    Array.of_list
      (List.concat
         (List.mapi
            (fun k d ->
              match d with
              | Some (d : Service.direct) ->
                [ d.d_cost /. Plan_cost.lower_bound model queries.(stream.(k)) ]
              | None -> [])
            (Array.to_list first)))
  in
  let layers =
    let st = Option.get !cache_stats in
    let cold_s = tr.cold_ms /. 1e3 in
    [
      ("querygen.generate_ms", gen_ms);
      ("qdl.parse_us_p50", median_of tr.parse_us);
      ("fingerprint.compute_us_p50", median_of tr.fp_us);
      ("plan_cache.lookup_us_p50", hist_p50_us "cache.lookup_ns");
      ("plan_cache.exact_hits", float_of_int st.hits);
      ("plan_cache.misses", float_of_int st.misses);
      ("plan_cache.evictions", float_of_int st.evictions);
      ("router.decide_us_p50", median_of tr.decide_us);
      ("plan_cost.eval_us", median_of tr.eval_us);
      ("router.fallbacks", float_of_int !fallbacks);
      ("online.refreshes", float_of_int !refreshes);
      ("online.refresh_ms_total", Samples.sum tr.refresh_ms /. float_of_int phase.rounds);
      ( "online.refresh_ms_max",
        Array.fold_left Float.max 0.0 (Samples.to_array tr.refresh_ms) );
      ("search.ticks_per_s", ratio (float_of_int tr.cold_ticks) cold_s);
      ( "search.neighbors_per_s",
        ratio (float_of_int (counter "search.neighbors_evaluated")) cold_s );
    ]
  in
  { setup_s; phase; cost_ratios; layers }

(* ------------------------------------------------------------------ *)
(* plan -> executed rows -> q-error                                     *)

type exec_out = {
  result : Optimizer.result;
  observed : Feedback.observed;
  measured : Feedback.measurement;
}

(* Layer figures of the traced execute run. *)
type exec_trace = {
  mutable observe_ms : float;
  mutable observe_words : float;
  mutable rows : float;  (** join output rows, the first relation's excluded *)
  measure_us : Samples.t;
}

(* The executor's row cap, passed explicitly so that the truncation check
   recounts against the same cap. *)
let exec_max_rows = 1_000_000

(* The checks of one execution beyond its plan: q-errors, and either the
   final row count or the truncated prefix, recounted in round 0. *)
let check_execution ~label ~recount q ~data (o : exec_out) =
  List.iter
    (fun (s : Feedback.sample) ->
      if not (s.qerror >= 1.0) then
        fail (Printf.sprintf "%s: q-error %g < 1" label s.qerror))
    o.measured.samples;
  let n = Query.n_relations q and acts = o.observed.act_cards in
  match (o.observed.truncated_at, o.observed.result_rows) with
  | None, Some rows ->
    if Array.length acts <> n || acts.(n - 1) <> float_of_int rows then
      fail (label ^ ": complete execution's cardinalities do not end at its row count")
    else if recount then
      expect_ok label (Check.row_count q ~data o.result.plan ~reported:rows)
  | Some d, None ->
    if Array.length acts <> d then
      fail
        (Printf.sprintf "%s: truncated at depth %d with a %d-step prefix" label d
           (Array.length acts))
    else if recount then
      expect_ok label
        (Check.truncation q ~data o.result.plan ~depth:d
           ~prefix_rows:(Float.to_int acts.(d - 1)) ~max_rows:exec_max_rows)
  | _ -> fail (label ^ ": truncation and row count disagree")

(* The default benchmark and its nine variations at N = 6..12, three
   queries per spec, with relation data generated at set-up. *)
let execute_feedback ~seed ~seconds ~trace =
  let setup () =
    let grid = Array.init 30 (fun j -> (j mod 10, 6 + (j mod 7))) in
    let qs, gen_ms = generate_queries grid in
    let data_ms = ref 0.0 in
    let data =
      Array.mapi
        (fun j q ->
          let rng = Rng.create (mix suite_seed (200_000 + j)) in
          let d, ms = time_ms (fun () -> Relation_data.generate_all q ~rng) in
          data_ms := !data_ms +. ms;
          d)
        qs
    in
    let ops = opt_ops ~seed ~t_factor:9.0 qs (fun _ -> Methods.IAI) in
    (ops, data, gen_ms, !data_ms /. float_of_int (Array.length qs))
  in
  let setup_s, (ops, data, gen_ms, data_ms) = repeated_setup setup in
  let k = Array.length ops in
  let st = if trace then Some (search_trace ()) else None in
  let tr =
    { observe_ms = 0.0; observe_words = 0.0; rows = 0.0; measure_us = Samples.create () }
  in
  let results = Array.make k (Error "not run") and first = Array.make k None in
  let execute j op =
    let result = optimize_op ?trace:st op in
    let w0 = Gc.minor_words () in
    let observed, ms =
      time_ms (fun () ->
          Feedback.observe ~max_rows:exec_max_rows op.query ~data:data.(j) result.plan)
    in
    if trace then begin
      let acts = observed.act_cards in
      tr.observe_ms <- tr.observe_ms +. ms;
      tr.observe_words <- tr.observe_words +. (Gc.minor_words () -. w0);
      tr.rows <- tr.rows +. Array.fold_left ( +. ) 0.0 acts -. acts.(0)
    end;
    let measured, ms =
      time_ms (fun () -> Feedback.measure ~model op.query ~data:data.(j) observed)
    in
    if trace then Samples.push tr.measure_us (ms *. 1e3);
    { result; observed; measured }
  in
  let round _ lat =
    Array.iteri
      (fun j op ->
        results.(j) <- attempt (fun () -> timed_op lat (fun () -> execute j op)))
      ops
  in
  let check r =
    Array.iteri
      (fun j res ->
        let op = ops.(j) in
        let label = op_label r j op in
        match res with
        | Error e -> fail (label ^ ": " ^ e)
        | Ok o -> (
          let before = tally.failed in
          expect_ok label
            (Check.plan_and_cost ~model op.query o.result.plan ~cost:o.result.cost);
          if not (Plan.equal o.observed.plan o.result.plan) then
            fail (label ^ ": executed another plan than the optimized one");
          check_execution ~label ~recount:(first.(j) = None) op.query ~data:data.(j) o;
          if tally.failed = before then
            match first.(j) with
            | None -> first.(j) <- Some o
            | Some f ->
              if
                not
                  (Plan.equal f.result.plan o.result.plan
                  && f.observed.act_cards = o.observed.act_cards
                  && f.observed.truncated_at = o.observed.truncated_at)
              then fail (label ^ ": " ^ differs_from_round_0)))
      results;
    Array.fill results 0 k (Error "not run")
  in
  let phase = timed_phase ~seconds ~round ~check in
  let firsts = List.filter_map Fun.id (Array.to_list first) in
  let cost_ratios =
    Array.of_list
      (List.concat
         (List.mapi
            (fun j o ->
              match o with
              | Some o -> [ o.result.cost /. Plan_cost.lower_bound model ops.(j).query ]
              | None -> [])
            (Array.to_list first)))
  in
  let truncations =
    List.length (List.filter (fun o -> o.observed.truncated_at <> None) firsts)
  in
  let qerrors =
    List.concat_map
      (fun o -> List.map (fun (s : Feedback.sample) -> s.qerror) o.measured.samples)
      firsts
  in
  let layers =
    [
      ("querygen.generate_ms", gen_ms);
      ("relation_data.generate_ms", data_ms);
      ("executor.truncations", float_of_int truncations);
      ("feedback.qerror_geomean", geomean (Array.of_list qerrors));
    ]
    @
    match st with
    | None -> []
    | Some st ->
      let observe_s = tr.observe_ms /. 1e3 in
      search_layers st
      @ [
          ("executor.rows_per_s", ratio tr.rows observe_s);
          ( "executor.probes_per_s",
            ratio (float_of_int (counter "exec.probe_comparisons")) observe_s );
          ("executor.words_per_row", ratio tr.observe_words tr.rows);
          ("feedback.measure_us_p50", median_of tr.measure_us);
        ]
  in
  { setup_s; phase; cost_ratios; layers }

(* ------------------------------------------------------------------ *)
(* Command line.                                                        *)

let workloads =
  [
    ("paper-optimize", paper_optimize);
    ("wide-optimize", wide_optimize);
    ("serve-repeat", serve_repeat);
    ("execute-feedback", execute_feedback);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     workloads: paper-optimize wide-optimize serve-repeat execute-feedback";
  exit 2

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct metrics units =
  let field (name, unit) =
    let v = Option.value (List.assoc_opt name metrics) ~default:0.0 in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed
    (String.concat ", " (List.map field units))

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := List.assoc_opt w workloads |> Option.map (fun run -> (w, run));
      if !workload = None then usage ();
      parse rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some v -> seed := v | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some v when v > 0.0 -> seconds := v
      | _ -> usage ());
      parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match Check.self_test () with
  | [] -> ()
  | failures ->
    List.iter (fun f -> prerr_endline ("checker self-test failed: " ^ f)) failures;
    exit 1);
  let name, run = match !workload with Some w -> w | None -> usage () in
  Ljqo_stats.Parallel.set_jobs 1;
  Obs.set_enabled !trace;
  let rep = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let probe_ms = Measure.host_probe_ms () in
  let ph = rep.phase in
  let ops = float_of_int ph.ops in
  let e2e =
    [
      ("setup_s", rep.setup_s);
      ("ops_per_s", ops /. ph.wall_s);
      ("latency_ms_p50", Measure.quantile ph.latencies_ms 0.5);
      ("latency_ms_p95", Measure.quantile ph.latencies_ms 0.95);
      ("plan_cost_over_bound", geomean rep.cost_ratios);
      ("alloc_mwords_per_op", ph.words_per_op /. 1e6);
      ("peak_rss_mb", Measure.peak_rss_mb ());
    ]
  in
  let layers =
    rep.layers
    @ [
        ("gc.minor_per_op", float_of_int ph.minor_gcs /. ops);
        ("gc.major_per_op", float_of_int ph.major_gcs /. ops);
        ("host.probe_ms", probe_ms);
      ]
  in
  List.iter (fun e -> prerr_endline ("FAILED " ^ e)) (List.rev tally.errors);
  Printf.eprintf "%s seed=%d trace=%b: %d ops in %d rounds, %.3f s timed, %d beyond p95\n"
    name !seed !trace ph.ops ph.rounds ph.wall_s (Measure.beyond ph.latencies_ms 0.95);
  List.iter
    (fun (k, v) -> Printf.eprintf "  %-28s %s\n" k (json_number v))
    (e2e @ layers);
  let correct = tally.failed = 0 in
  if !trace then print_result ~correct layers per_layer_units
  else print_result ~correct e2e end_to_end_units
