(* The repository benchmark: one workload, one seed, one run.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Every run generates its inputs (database, statements, reference
   digests), then sets up several times (catalog, indexes, spill files
   and one untimed warm pass over every statement) and reports the
   median set-up time, then measures for [--seconds]. With [--trace 0]
   it prints the end-to-end metrics; with [--trace 1] it measures once
   untraced and once with the engine's span recorder attached, and
   prints the per-layer breakdown. The last line of standard output is
   one JSON object; every result digest is checked against its
   reference, and a mismatch makes the run exit non-zero.

   The engine is driven only through its public entry points:
   [Strategy.run] / [Driver.run] for the batch workloads and
   [Server.submit] / [Server.drain] for serving. See README.md. *)

open Perfbench
module Span = Qs_util.Span
module Timer = Qs_util.Timer
module Rng = Qs_util.Rng
module Pool = Qs_util.Pool
module Cancel = Qs_util.Cancel
module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Buffer_pool = Qs_storage.Buffer_pool
module Query = Qs_query.Query
module Logical = Qs_plan.Logical
module Dp_memo = Qs_plan.Dp_memo
module Plan_cache = Qs_plan.Plan_cache
module Optimizer = Qs_plan.Optimizer
module Estimator = Qs_stats.Estimator
module Stats_registry = Qs_stats.Stats_registry
module Strategy = Qs_core.Strategy
module Driver = Qs_core.Driver
module Executor = Qs_exec.Executor
module Server = Qs_serve.Server
module Cinema = Qs_workload.Cinema
module Dsb = Qs_workload.Dsb

(* ---------------------------------------------------------------------- *)
(* Fixed parameters                                                       *)
(* ---------------------------------------------------------------------- *)

(* The database and the statement pool are fixed, as JOB's are; the run
   seed only orders the statements (for serving: picks where the fixed
   statement trace starts), so runs with different seeds measure the
   same work. *)
let data_seed = 2023
let cinema_scale = 0.2
let dsb_scale = 2.0
let deadline_s = 5.0
let setup_reps = 3

(* p90 needs 100 samples (ten beyond it) *)
let min_samples = 100

(* serving: sessions, each keeping one statement outstanding *)
let serve_clients = 4

(* out-of-core: 4 frames against 10 base-table chunks *)
let buffer_frames = 4
let work_dir = "_bench_work"

(* ---------------------------------------------------------------------- *)
(* Small helpers                                                          *)
(* ---------------------------------------------------------------------- *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s -> List.nth s (List.length s / 2)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o700 with Sys_error _ -> ()
    end
  in
  go path

(* Peak resident memory of the timed phase: the kernel's high-water
   mark is reset (clear_refs 5) just before the phase and read after. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------------------------------------------------------------------- *)
(* Inputs: statements and reference digests                               *)
(* ---------------------------------------------------------------------- *)

type stmt = Spj of Query.t | Tree of Logical.t

let stmt_name = function Spj q -> q.Query.name | Tree t -> Logical.name t

type inputs = { stmts : stmt array; refs : (string, string) Hashtbl.t }

(* SPJ reference: naive execution, independent of any plan choice. *)
let naive_digest registry q =
  let ctx = Strategy.make_ctx registry Estimator.default in
  let frag = Strategy.fragment_of_query ctx q in
  Table.digest (Executor.project (Qs_exec.Naive.rows frag) q.Query.output)

(* Non-SPJ reference: a resident run of the Default strategy ([Naive]
   has no [Logical] entry point). *)
let default_digest registry tree =
  let ctx = Strategy.make_ctx ~dp_memo:(Dp_memo.create ()) registry Estimator.default in
  let o = Driver.run Qs_core.Static.default ctx tree in
  if o.Strategy.timed_out then failwith ("reference timed out: " ^ Logical.name tree);
  Table.digest o.Strategy.result

let build_cinema () =
  let cat = Cinema.build ~scale:cinema_scale ~seed:data_seed () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  cat

let build_dsb () =
  let cat = Dsb.build ~scale:dsb_scale ~seed:data_seed () in
  Catalog.build_indexes cat Catalog.Pk_fk;
  cat

(* Inputs depend only on the fixed data seed and on the code, so they
   are generated once per build of this executable and kept under
   [work_dir]; a later run of the same build reads them back. *)
let cached kind (make : unit -> inputs) : inputs =
  let key = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat work_dir (Printf.sprintf "inputs-%s-%s.bin" kind key) in
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
  | exception Sys_error _ ->
      let inputs = make () in
      mkdir_p work_dir;
      let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      Marshal.to_channel oc inputs [];
      close_out oc;
      Sys.rename tmp path;
      inputs

let make_inputs stmts digest =
  let refs = Hashtbl.create 128 in
  Array.iter (fun s -> Hashtbl.replace refs (stmt_name s) (digest s)) stmts;
  { stmts; refs }

let cinema_inputs () =
  cached "cinema" @@ fun () ->
  let cat = build_cinema () in
  let registry = Stats_registry.create cat in
  let qs = Cinema.queries cat ~seed:(data_seed + 1) ~n:Cinema.default_query_count in
  make_inputs
    (Array.of_list (List.map (fun q -> Spj q) qs))
    (function Spj q -> naive_digest registry q | Tree t -> default_digest registry t)

(* Generated resident, before spill mode is switched on. *)
let dsb_inputs () =
  cached "dsb" @@ fun () ->
  let cat = build_dsb () in
  let registry = Stats_registry.create cat in
  let spj = Dsb.spj_queries cat ~seed:(data_seed + 1) in
  let trees = Dsb.nonspj_queries cat ~seed:(data_seed + 1) in
  make_inputs
    (Array.of_list (List.map (fun q -> Spj q) spj @ List.map (fun t -> Tree t) trees))
    (function Spj q -> naive_digest registry q | Tree t -> default_digest registry t)

(* ---------------------------------------------------------------------- *)
(* Measurements                                                           *)
(* ---------------------------------------------------------------------- *)

(* One measured query. [latency] is wall-clock including planning and
   estimation (for serving: queue wait plus execution); failed queries
   count as an infinite latency in the percentiles. *)
type sample = { name : string; latency : float; failure : Failure.cause option }

(* What the strategy reported for one executed query: its
   re-optimization iterations and its DP memo's hits and misses. *)
type trail = { iterations : Strategy.iteration list; memo_hits : int; memo_misses : int }

let trail_of (o : Strategy.outcome) memo =
  {
    iterations = o.Strategy.iterations;
    memo_hits = Dp_memo.hits memo;
    memo_misses = Dp_memo.misses memo;
  }

(* One timed phase. [busy] is the time the engine spent on queries
   (the fold's base); [wall] is what throughput divides by. *)
type measured = {
  samples : sample list;
  trails : trail list;
  wall : float;
  busy : float;
  work : int;
      (** passes over the statements (batch) or statements sent
          (serving); a traced re-run repeats exactly this much *)
  est_calls : int;
  serve : (string * float) list;  (** serving's own per-layer figures *)
  roots : Span.span list;  (** synthesized root spans (serving) *)
}

let failures samples =
  let t = Failure.tally () in
  List.iter (fun s -> Option.iter (Failure.add t) s.failure) samples;
  t

let completed samples = List.length (List.filter (fun s -> s.failure = None) samples)

(* The estimator, wrapped so that each call is counted and, when
   tracing, recorded as an [estimate] span of the benchmark's own. *)
let counted_estimator tracer calls =
  let base = Estimator.default in
  {
    Estimator.name = base.Estimator.name;
    card =
      (fun frag ->
        Atomic.incr calls;
        Span.span tracer Span.Estimate "bench:estimate" (fun () -> base.Estimator.card frag));
  }

let querysplit = Qs_core.Querysplit.strategy Qs_core.Querysplit.default_config

(* The statements in the order a run sends them (see [Order]). *)
let run_order inputs ~seed =
  let k = Array.length inputs.stmts in
  Order.rotated (Rng.create data_seed) inputs.stmts ~rotation:(Rng.int (Rng.create seed) k)

(* Whole rounds over the statements, as many as fit in [seconds] (and
   enough for [min_samples] queries): another round starts unless, at
   the pace so far, it would end past [seconds]. *)
let another_round ~start ~seconds ~rounds ~per_round =
  let elapsed = Timer.now () -. start in
  rounds = 0
  || rounds * per_round < min_samples
  || elapsed *. float_of_int (rounds + 1) /. float_of_int rounds <= seconds

(* ---------------------------------------------------------------------- *)
(* Batch workloads: Strategy.run / Driver.run, one query at a time       *)
(* ---------------------------------------------------------------------- *)

type batch = { registry : Stats_registry.t; tracer : Span.t option; estimator : Estimator.t }

(* One statement under a fresh context and DP memo, inside a root span
   of the benchmark's own. *)
let run_statement b stmt =
  let dp_memo = Dp_memo.create () in
  let t0 = Timer.now () in
  let ctx =
    Strategy.make_ctx ~deadline:(Some (t0 +. deadline_s)) ?spans:b.tracer ~dp_memo b.registry
      b.estimator
  in
  let outcome =
    match
      Span.span b.tracer Span.Execute ("bench:" ^ stmt_name stmt) (fun () ->
          match stmt with
          | Spj q -> querysplit.Strategy.run ctx q
          | Tree t -> Driver.run querysplit ctx t)
    with
    | o when o.Strategy.timed_out -> Error Failure.Timed_out
    | o -> Ok o
    | exception Executor.Timeout -> Error Failure.Timed_out
    | exception Cancel.Cancelled -> Error Failure.Was_cancelled
    | exception e -> Error (Failure.Raised (Printexc.to_string e))
  in
  (outcome, Timer.now () -. t0, dp_memo)

let warm_batch registry stmts =
  let b = { registry; tracer = None; estimator = Estimator.default } in
  Array.iter (fun s -> ignore (run_statement b s)) stmts

(* Passes over the statements in the run's order: as many as fit in
   [seconds], or exactly [passes] when given. Digests are checked, and
   [settle] runs, between queries, off the clock: [wall] and [busy] are
   the sum of the query times. *)
let timed_batch ?passes ?(settle = ignore) ~seconds ~seed ~tracer registry inputs =
  let calls = Atomic.make 0 in
  let b = { registry; tracer; estimator = counted_estimator tracer calls } in
  let order = run_order inputs ~seed in
  let samples = ref [] and trails = ref [] and busy = ref 0.0 and pass = ref 0 in
  let start = Timer.now () in
  let again () =
    match passes with
    | Some p -> !pass < p
    | None -> another_round ~start ~seconds ~rounds:!pass ~per_round:(Array.length order)
  in
  while again () do
    incr pass;
    Array.iter
      (fun stmt ->
        let outcome, latency, memo = run_statement b stmt in
        busy := !busy +. latency;
        let status =
          match outcome with
          | Ok o ->
              trails := trail_of o memo :: !trails;
              Failure.Completed (Table.digest o.Strategy.result)
          | Error st -> st
        in
        let name = stmt_name stmt in
        let failure =
          Failure.classify ~deadline_s ~elapsed_s:latency ~expected:(Hashtbl.find inputs.refs name)
            status
        in
        samples := { name; latency; failure } :: !samples;
        settle ())
      order
  done;
  {
    samples = !samples;
    trails = !trails;
    wall = !busy;
    busy = !busy;
    work = !pass;
    est_calls = Atomic.get calls;
    serve = [];
    roots = [];
  }

(* ---------------------------------------------------------------------- *)
(* Serving: closed loop through Server.submit / Server.drain             *)
(* ---------------------------------------------------------------------- *)

let serve_config = { Server.default_config with Server.concurrency = 1; queue_limit = 1024 }

(* Warm pass: every statement is admitted once with an already-expired
   deadline, so its plan is resolved into the shared cache (and the
   base-table statistics are collected) but nothing executes. *)
let warm_serve registry plan_cache stmts =
  Pool.with_pool ~domains:1 (fun pool ->
      let server = Server.create ~config:serve_config ~plan_cache ~pool registry Estimator.default in
      Array.iter
        (function
          | Spj q -> ignore (Server.submit server ~session:"warm" ~deadline:(-1.0) q)
          | Tree _ -> invalid_arg "serve: SPJ statements only")
        stmts;
      Server.drain server)

(* QuerySplit inside the server, under a span of the benchmark's own so
   the fold can tell the strategy loop from the server around it, and
   reporting each query's trail. *)
let served_querysplit trails =
  {
    querysplit with
    Strategy.run =
      (fun ctx q ->
        let o =
          Span.span ctx.Strategy.spans Span.Execute ("bench:" ^ q.Query.name) (fun () ->
              querysplit.Strategy.run ctx q)
        in
        Option.iter (fun memo -> trails := trail_of o memo :: !trails) ctx.Strategy.dp_memo;
        o);
  }

(* Serving's synthesized root span for one query: its execution interval
   (dispatch to completion), reconstructed from the server's result.
   Serving runs on one domain, so every root is on its track. The fold
   attributes the strategy's and executor's spans to these roots and
   leaves the server's own share (result projection and digest,
   telemetry) as their self time. *)
let serve_root tracer i ~submitted ~admitted (r : Server.result) =
  (* the server stamps admission a little after [submitted]; on one
     domain execution cannot start before [submit] has returned *)
  let stop = submitted +. r.Server.queue_wait +. r.Server.exec_time in
  let start = Float.max (stop -. r.Server.exec_time) admitted in
  {
    Span.id = -1 - i;
    parent = -1;
    name = "bench:serve-exec";
    cat = Span.Execute;
    track = (Domain.self () :> int);
    start = start -. Span.origin tracer;
    dur = stop -. start;
    args = [];
  }

(* A served query's latency is what its session waited: the server's
   queue wait plus its execution. *)
let sample_of_result ~inputs (r : Server.result) =
  let status =
    match r.Server.status with
    | Server.Completed -> Failure.Completed (Option.value ~default:"" r.Server.digest)
    | Server.Deadline_exceeded -> Failure.Timed_out
    | Server.Cancelled -> Failure.Was_cancelled
    | Server.Failed m -> Failure.Raised m
  in
  let latency = r.Server.queue_wait +. r.Server.exec_time in
  {
    name = r.Server.query;
    latency;
    failure =
      Failure.classify ~deadline_s ~elapsed_s:latency
        ~expected:(Hashtbl.find inputs.refs r.Server.query)
        status;
  }

(* Closed loop: [serve_clients] sessions each keep one statement
   outstanding, and when one completes its session sends the next
   statement of the run's order, cyclically, for whole rounds as many
   as fit in [seconds], or exactly [sends] statements when given. The server's
   one execution slot runs on the sessions' own domain: the loop runs
   the server's queued work until a statement completes. *)
let timed_serve ?sends ~seconds ~seed ~tracer registry plan_cache inputs =
  let trace = run_order inputs ~seed in
  let k = Array.length trace in
  let calls = Atomic.make 0 and trails = ref [] in
  Pool.with_pool ~domains:1 (fun pool ->
      let server =
        Server.create ~config:serve_config ?spans:tracer ~plan_cache
          ~strategy:(served_querysplit trails) ~pool registry (counted_estimator tracer calls)
      in
      let sent = ref [] in
      let send session =
        let q = match trace.(List.length !sent mod k) with Spj q -> q | Tree _ -> invalid_arg "serve: SPJ only" in
        let t = Timer.now () in
        let ticket =
          Span.span tracer Span.Execute "bench:submit" (fun () ->
              Server.submit server ~session ~deadline:deadline_s q)
        in
        sent := (ticket, t, Timer.now () -. t) :: !sent
      in
      let start = Timer.now () in
      for c = 1 to serve_clients do
        send (Printf.sprintf "c%d" c)
      done;
      let seen = ref 0 in
      let again () =
        let n = List.length !sent in
        match sends with
        | Some s -> n < s
        | None -> n mod k <> 0 || another_round ~start ~seconds ~rounds:(n / k) ~per_round:k
      in
      while again () do
        Pool.help_until pool (fun () -> List.length (Server.results server) > !seen);
        let rs = Server.results server in
        List.iteri (fun i (r : Server.result) -> if i >= !seen && again () then send r.Server.session) rs;
        seen := List.length rs
      done;
      Server.drain server;
      let wall = Timer.now () -. start in
      let sent = Array.of_list (List.rev !sent) in
      let results = Array.map (fun (ticket, _, _) -> Server.await server ticket) sent in
      let n = Array.length results in
      let field f = Array.to_list (Array.map f results) in
      let ms f = field (fun r -> 1000.0 *. f r) in
      let admit = Array.map (fun (_, _, a) -> a) sent in
      let sum a = Array.fold_left ( +. ) 0.0 a in
      {
        samples = field (sample_of_result ~inputs);
        trails = !trails;
        wall;
        busy = sum (Array.map (fun (r : Server.result) -> r.Server.exec_time) results) +. sum admit;
        work = n;
        est_calls = Atomic.get calls;
        serve =
          [
            ("server.admit_ms", 1000.0 *. sum admit /. float_of_int n);
            ("server.queue_wait_p90_ms", Pct.percentile_or_max ~q:0.9 (ms (fun r -> r.Server.queue_wait)));
            ("server.exec_p90_ms", Pct.percentile_or_max ~q:0.9 (ms (fun r -> r.Server.exec_time)));
            ( "plan_cache.hit_ratio",
              Pct.ratio (List.length (List.filter Fun.id (field (fun r -> r.Server.cache_hit)))) n );
            ( "scheduler.rounds_waited_p90",
              Pct.percentile_or_max ~q:0.9 (field (fun r -> float_of_int r.Server.rounds_waited)) );
            ("server.peak_queue", float_of_int (Server.peak_queue server));
          ];
        roots =
          (match tracer with
          | Some t ->
              Array.to_list
                (Array.mapi
                   (fun i (_, submitted, a) -> serve_root t i ~submitted ~admitted:(submitted +. a) results.(i))
                   sent)
          | None -> []);
      })

(* ---------------------------------------------------------------------- *)
(* Workloads                                                              *)
(* ---------------------------------------------------------------------- *)

(* What one set-up leaves for the timed phase. *)
type state = {
  registry : Stats_registry.t;
  plan_cache : Optimizer.result Plan_cache.t option;
  bp : Buffer_pool.t option;
  settle : unit -> unit;  (** run after each timed query, off the clock *)
}

type workload = {
  name : string;
  inputs : unit -> inputs;
  setup : inputs -> rep:int -> state;
  measure :
    state -> inputs -> seconds:float -> seed:int -> tracer:Span.t option -> work:int option ->
    measured;
  teardown : unit -> unit;
}

let job_querysplit =
  {
    name = "job-querysplit";
    inputs = cinema_inputs;
    setup =
      (fun inputs ~rep:_ ->
        let registry = Stats_registry.create (build_cinema ()) in
        warm_batch registry inputs.stmts;
        { registry; plan_cache = None; bp = None; settle = ignore });
    measure =
      (fun st inputs ~seconds ~seed ~tracer ~work ->
        timed_batch ?passes:work ~seconds ~seed ~tracer st.registry inputs);
    teardown = ignore;
  }

let serve_cinema =
  {
    name = "serve-cinema";
    inputs = cinema_inputs;
    setup =
      (fun inputs ~rep:_ ->
        let registry = Stats_registry.create (build_cinema ()) in
        let plan_cache = Plan_cache.create () in
        warm_serve registry plan_cache inputs.stmts;
        { registry; plan_cache = Some plan_cache; bp = None; settle = ignore });
    measure =
      (fun st inputs ~seconds ~seed ~tracer ~work ->
        timed_serve ?sends:work ~seconds ~seed ~tracer st.registry (Option.get st.plan_cache) inputs);
    teardown = ignore;
  }

(* Out-of-core DSB: every table, temps included, spills to a chunk file
   under a per-process directory and is read back through a 4-frame
   buffer pool. Each set-up gets its own directory; the previous one is
   removed when the next set-up starts.

   The pool has no I/O worker, so every miss is read on the query's
   domain and the engine's prefetch is off: on a loaded 2-core machine a
   worker domain made the workload slower and less steady. Between
   timed queries, off the clock, the run settles: it deletes the chunk
   files of the finished query's tables (every file the catalog build
   did not write; the engine never removes them) and finishes the
   collector's current major cycle, so that no query pays for a varying
   share of its predecessors' garbage. README.md (Spilled DSB) has the
   measurements behind both. *)
let dsb_spilled () =
  let root = Filename.concat work_dir (Printf.sprintf "spill-%d" (Unix.getpid ())) in
  let current = ref None in
  {
    name = "dsb-spilled";
    inputs = dsb_inputs;
    setup =
      (fun inputs ~rep ->
        Option.iter rm_rf !current;
        let dir = Filename.concat root (Printf.sprintf "setup%d" rep) in
        mkdir_p dir;
        current := Some dir;
        let bp = Buffer_pool.create ~capacity:buffer_frames () in
        Table.set_spill (Some (dir, bp));
        let registry = Stats_registry.create (build_dsb ()) in
        let base = Array.to_list (Sys.readdir dir) in
        let drop_temps () =
          Array.iter
            (fun f -> if not (List.mem f base) then Sys.remove (Filename.concat dir f))
            (Sys.readdir dir)
        in
        warm_batch registry inputs.stmts;
        drop_temps ();
        let settle () =
          drop_temps ();
          Gc.major ()
        in
        { registry; plan_cache = None; bp = Some bp; settle });
    measure =
      (fun st inputs ~seconds ~seed ~tracer ~work ->
        let bp = Option.get st.bp in
        Buffer_pool.set_tracer bp tracer;
        Buffer_pool.reset_stats bp;
        let m =
          timed_batch ?passes:work ~settle:st.settle ~seconds ~seed ~tracer st.registry inputs
        in
        Buffer_pool.set_tracer bp None;
        m);
    teardown =
      (fun () ->
        Table.set_spill None;
        rm_rf root);
  }

let workloads () = [ job_querysplit; serve_cinema; dsb_spilled () ]

(* ---------------------------------------------------------------------- *)
(* Metrics                                                                *)
(* ---------------------------------------------------------------------- *)

let end_to_end ~setup_s ~peak_mb m =
  let lat = List.map (fun s -> if s.failure = None then s.latency else infinity) m.samples in
  let pct q =
    match Pct.percentile ~q lat with
    | Some v -> 1000.0 *. v
    | None -> failwith (Printf.sprintf "%d samples are too few for p%g" (List.length lat) (100. *. q))
  in
  [
    ("latency_p50_ms", pct 0.5, "ms");
    ("latency_p90_ms", pct 0.9, "ms");
    ("throughput_qps", float_of_int (completed m.samples) /. m.wall, "1/s");
    ("peak_rss_mb", peak_mb, "MB");
    ("setup_s", setup_s, "s");
  ]

let layer_of (s : Span.span) =
  match s.Span.cat with
  | Span.Estimate -> "estimator"
  | Span.Optimize | Span.Dp_level -> "optimizer"
  | Span.Analyze -> "analyze"
  | Span.Pipeline | Span.Operator -> "pipeline"
  | Span.Breaker -> "breaker"
  | Span.Io -> "io"
  | Span.Pool_task -> "pool"
  | _ when s.Span.name = "bench:serve-exec" -> "server"
  | _ when s.Span.name = "bench:submit" -> "admit"
  | _ -> "core"

let is_root (s : Span.span) =
  String.starts_with ~prefix:"bench:" s.Span.name && s.Span.cat = Span.Execute

let layers = [ "core"; "estimator"; "optimizer"; "analyze"; "pipeline"; "breaker"; "io"; "server"; "admit"; "pool" ]

(* Counts and times are per measured query. *)
let per_layer m ~tracer ~bp ~untraced_busy =
  let per x = x /. float_of_int (List.length m.samples) in
  let count x = per (float_of_int x) in
  let f = Fold.fold ~is_root ~layer:layer_of (Span.spans tracer @ m.roots) in
  let residual = m.busy -. Fold.total_self f in
  Printf.printf "fold: busy %.4fs, self-time sum %.4fs, residual %.6fs (%.3f%%), unattributed %.4fs\n"
    m.busy (Fold.total_self f) residual (100.0 *. residual /. m.busy) f.Fold.unattributed;
  List.iter
    (fun l ->
      Printf.printf "  %-10s self %.4fs (%5.1f%%)  spans %d\n" l (Fold.self_s f l)
        (100.0 *. Fold.self_s f l /. m.busy) (Fold.calls f l))
    layers;
  let iterations = List.concat_map (fun t -> t.iterations) m.trails in
  let memo_h = List.fold_left (fun a t -> a + t.memo_hits) 0 m.trails in
  let memo_m = List.fold_left (fun a t -> a + t.memo_misses) 0 m.trails in
  let b g = match bp with Some bp -> g (Buffer_pool.stats bp) | None -> 0 in
  let serve k = Option.value ~default:0.0 (List.assoc_opt k m.serve) in
  [
    ("estimator.calls", count m.est_calls, "count/query");
    ("estimator.self_s", per (Fold.self_s f "estimator"), "s/query");
    ( "estimator.qerror_p90",
      Pct.percentile_or_max ~q:0.9
        (List.map
           (fun (i : Strategy.iteration) ->
             Qs_obs.Qerror.value ~est:i.Strategy.est_rows ~actual:i.Strategy.actual_rows)
           iterations),
      "ratio" );
    ("optimizer.calls", count (Fold.calls f "optimizer"), "count/query");
    ("optimizer.self_s", per (Fold.self_s f "optimizer"), "s/query");
    ("dp_memo.hit_ratio", Pct.ratio memo_h (memo_h + memo_m), "ratio");
    ("core.iterations", count (List.length iterations), "count/query");
    ( "core.replans",
      count (List.length (List.filter (fun i -> i.Strategy.replanned) iterations)),
      "count/query" );
    ("core.self_s", per (Fold.self_s f "core"), "s/query");
    ("temp.mat_bytes", count (List.fold_left (fun a i -> a + i.Strategy.mat_bytes) 0 iterations), "B/query");
    ("analyze.calls", count (Fold.calls f "analyze"), "count/query");
    ("analyze.self_s", per (Fold.self_s f "analyze"), "s/query");
    ("executor.pipeline_s", per (Fold.self_s f "pipeline"), "s/query");
    ("executor.breaker_s", per (Fold.self_s f "breaker"), "s/query");
    ("executor.intermediate_tables", count (Executor.intermediate_tables ()), "count/query");
    ("executor.vectorized_chunks", count (Executor.vectorized_chunks ()), "count/query");
    ("executor.partition_reuses", count (Executor.partition_reuses ()), "count/query");
    ( "buffer_pool.hit_ratio",
      Pct.ratio (b (fun s -> s.Buffer_pool.hits)) (b (fun s -> s.Buffer_pool.hits + s.Buffer_pool.misses)),
      "ratio" );
    ("buffer_pool.misses", count (b (fun s -> s.Buffer_pool.misses)), "count/query");
    ("buffer_pool.evictions", count (b (fun s -> s.Buffer_pool.evictions)), "count/query");
    ("io.self_s", per (Fold.self_s f "io"), "s/query");
    ("server.self_s", per (Fold.self_s f "server"), "s/query");
    ("server.admit_ms", serve "server.admit_ms", "ms/query");
    ("server.queue_wait_p90_ms", serve "server.queue_wait_p90_ms", "ms");
    ("server.exec_p90_ms", serve "server.exec_p90_ms", "ms");
    ("plan_cache.hit_ratio", serve "plan_cache.hit_ratio", "ratio");
    ("scheduler.rounds_waited_p90", serve "scheduler.rounds_waited_p90", "count");
    ("server.peak_queue", serve "server.peak_queue", "count");
    ("residual_s", per residual, "s/query");
    ("residual_ratio", residual /. m.busy, "ratio");
    ("trace_overhead_ratio", (m.busy /. untraced_busy) -. 1.0, "ratio");
  ]

(* ---------------------------------------------------------------------- *)
(* Entry point                                                            *)
(* ---------------------------------------------------------------------- *)

let print_phase label m =
  let t = failures m.samples in
  let n = List.length m.samples in
  Printf.printf "%s: %d queries, wall %.3fs, busy %.3fs\n" label n m.wall m.busy;
  Printf.printf "  failed_ratio %.4f (%d of %d), by cause:%s\n%!"
    (Pct.ratio (Failure.total t) n) (Failure.total t) n
    (String.concat ""
       (List.map (fun c -> Printf.sprintf " %s=%d" (Failure.name c) (Failure.count t c)) Failure.all))

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let run w ~seed ~seconds ~trace =
  Printf.printf "workload %s, seed %d, %gs, trace %b\n%!" w.name seed seconds trace;
  let t0 = Timer.now () in
  let inputs = w.inputs () in
  Printf.printf "inputs: %d statements and their reference digests in %.2fs\n%!"
    (Array.length inputs.stmts) (Timer.now () -. t0);
  Fun.protect ~finally:w.teardown @@ fun () ->
  let times = ref [] and state = ref None in
  for rep = 1 to setup_reps do
    state := None;
    Gc.full_major ();
    let t = Timer.now () in
    state := Some (w.setup inputs ~rep);
    times := (Timer.now () -. t) :: !times
  done;
  let st = Option.get !state and setup_s = median !times in
  Printf.printf "setup_s: median %.4fs of [%s]\n%!" setup_s
    (String.concat "; " (List.rev_map (Printf.sprintf "%.4f") !times));
  let measure ~tracer ~work =
    Gc.compact ();
    Executor.reset_counters ();
    reset_peak_rss ();
    let m = w.measure st inputs ~seconds ~seed ~tracer ~work in
    (m, peak_rss_mb ())
  in
  let m, peak_mb = measure ~tracer:None ~work:None in
  print_phase "timed phase" m;
  let metrics, phases =
    if not trace then (end_to_end ~setup_s ~peak_mb m, [ m ])
    else begin
      (* the same work again, traced *)
      let tracer = Span.create () in
      let mt, _ = measure ~tracer:(Some tracer) ~work:(Some m.work) in
      print_phase "traced phase" mt;
      Printf.printf "  %d spans; untraced busy %.3fs\n" (Span.count tracer) m.busy;
      (per_layer mt ~tracer ~bp:st.bp ~untraced_busy:m.busy, [ m; mt ])
    end
  in
  List.iter (fun (k, v, u) -> Printf.printf "  %-34s %14.6f %s\n" k v u) metrics;
  let samples = List.concat_map (fun m -> m.samples) phases in
  let t = failures samples in
  let mismatched = Failure.count t Failure.Digest_mismatch in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (mismatched = 0) (List.length samples) (Failure.total t)
    (String.concat ", " (List.map json_metric metrics));
  mismatched

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) (workloads ()) with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w -> if run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) > 0 then exit 1
