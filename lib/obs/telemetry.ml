(* Always-on serving telemetry: every admitted query's flight record
   accumulates into a bounded lock-striped ring buffer (fixed memory,
   overwrite-oldest), latency histograms per final status, and a small
   set of cumulative counters. Completion sequence numbers are assigned
   round-robin across stripes, so each stripe only ever holds seqs
   congruent to its index — stripe-local overwrite-oldest therefore
   retains exactly the globally most recent [capacity] flights, and a
   snapshot (which locks one stripe at a time, never all at once) can
   merge by seq without a global lock.

   Tail sampling: full span trees are retained only for flights that
   are errors / timeouts / cancellations, or successes whose turnaround
   lands at or above the configured latency quantile of the streaming
   success histogram — everything else keeps just the per-phase rollup,
   so memory stays bounded no matter the traffic. *)

module Span = Qs_util.Span
module Timer = Qs_util.Timer

type config = {
  capacity : int;
  stripes : int;
  slow_quantile : float;
  min_samples : int;
}

let default_config =
  {
    capacity = 256;
    stripes = 8;
    slow_quantile = 0.95;
    min_samples = 32;
  }

type stripe = { lock : Mutex.t; slots : Flight.record option array }

type t = {
  config : config;
  ring : stripe array;
  per_stripe : int;
  seq : int Atomic.t; (* completions so far; next record's seq *)
  admitted : int Atomic.t;
  active_lock : Mutex.t;
  active : (int, Flight.t) Hashtbl.t;
  stats_lock : Mutex.t; (* guards histograms + counters *)
  latency : (string, Histogram.t) Hashtbl.t; (* by status name *)
  slow : Histogram.t; (* success *execution* times, the tail-sampling bar *)
  counters : (string, int ref) Hashtbl.t;
}

let create ?(config = default_config) () =
  let capacity = max 1 config.capacity in
  let stripes = max 1 (min config.stripes capacity) in
  let per_stripe = max 1 (capacity / stripes) in
  {
    config;
    ring =
      Array.init stripes (fun _ ->
          { lock = Mutex.create (); slots = Array.make per_stripe None });
    per_stripe;
    seq = Atomic.make 0;
    admitted = Atomic.make 0;
    active_lock = Mutex.create ();
    active = Hashtbl.create 32;
    stats_lock = Mutex.create ();
    latency = Hashtbl.create 4;
    slow = Histogram.create ();
    counters = Hashtbl.create 16;
  }

let capacity t = Array.length t.ring * t.per_stripe

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* callers hold [stats_lock] *)
let bump t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let hist t name =
  match Hashtbl.find_opt t.latency name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.replace t.latency name h;
      h

(* --- flight lifecycle -------------------------------------------------- *)

let admit t ?(external_tracer = false) ~id ~session ~statement ~strategy
    ~cache_hit ~est_cost () =
  Atomic.incr t.admitted;
  let fl =
    Flight.create ~tracer:(not external_tracer) ~id ~session ~statement
      ~strategy ~cache_hit ~est_cost ~submitted:(Timer.now ()) ()
  in
  with_lock t.active_lock (fun () -> Hashtbl.replace t.active id fl);
  fl

let dispatch _t fl = Flight.mark_dispatched fl

(* the single mutation point of the ring; tools/lint_unsafe.sh bans the
   ring_push / ring_snapshot identifiers outside lib/obs *)
let ring_push t (record : Flight.record) =
  let n = Array.length t.ring in
  let stripe = t.ring.(record.Flight.r_seq mod n) in
  let slot = record.Flight.r_seq / n mod t.per_stripe in
  with_lock stripe.lock (fun () ->
      (* a writer delayed between taking its seq and pushing must not
         overwrite a newer record that already landed in its slot *)
      match stripe.slots.(slot) with
      | Some newer when newer.Flight.r_seq > record.Flight.r_seq -> ()
      | _ -> stripe.slots.(slot) <- Some record)

let ring_snapshot t =
  Array.to_list t.ring
  |> List.concat_map (fun stripe ->
         with_lock stripe.lock (fun () ->
             Array.to_list stripe.slots |> List.filter_map Fun.id))
  |> List.sort (fun (a : Flight.record) b ->
         Int.compare a.Flight.r_seq b.Flight.r_seq)

let complete t fl ~status ~row_count ~queue_wait ~exec_time ~faults ~bypasses
    =
  with_lock t.active_lock (fun () -> Hashtbl.remove t.active (Flight.id fl));
  let turnaround = queue_wait +. exec_time in
  let status_n = Flight.status_name status in
  let sampled =
    with_lock t.stats_lock (fun () ->
        (* decide retention against the histogram *before* this flight's
           own observation, then record it. The bar is *execution* time,
           not turnaround: queue wait grows with backlog, so under load
           every flight's turnaround would beat its predecessors' and the
           sampler would degenerate to keep-everything *)
        let sampled =
          match status with
          | Flight.Completed ->
              let decided =
                Histogram.count t.slow >= t.config.min_samples
                && exec_time
                   >= Histogram.percentile t.slow t.config.slow_quantile
              in
              Histogram.observe t.slow exec_time;
              decided
          | _ -> true
        in
        Histogram.observe (hist t status_n) turnaround;
        bump t "flights";
        bump t status_n;
        if sampled then bump t "sampled";
        (match status with
        | Flight.Completed -> ()
        | _ -> bump t "errors");
        bump t ~by:(Flight.n_steps fl) "journal_steps";
        sampled)
  in
  let seq = Atomic.fetch_and_add t.seq 1 in
  let record =
    Flight.finish fl ~status ~row_count ~queue_wait ~exec_time ~faults
      ~bypasses ~sampled ~seq
  in
  with_lock t.stats_lock (fun () ->
      let c = record.Flight.r_counters in
      bump t ~by:c.Flight.intermediate_tables "intermediate_tables";
      bump t ~by:c.Flight.faults "faults";
      bump t ~by:c.Flight.bypasses "bypasses");
  ring_push t record;
  record

(* --- snapshot ---------------------------------------------------------- *)

type latency_summary = {
  l_count : int;
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_max : float;
}

type active_flight = {
  a_id : int;
  a_session : string;
  a_statement : string;
  a_strategy : string;
  a_running : bool;
  a_age : float;
  a_steps : int;
}

type snapshot = {
  s_admitted : int;
  s_completed : int;
  s_counters : (string * int) list; (* sorted by name *)
  s_active : active_flight list; (* by admission id *)
  s_recent : Flight.record list; (* by completion seq, oldest first *)
  s_latency : (string * latency_summary) list; (* by status name *)
}

let snapshot t =
  let now = Timer.now () in
  let s_active =
    with_lock t.active_lock (fun () ->
        Hashtbl.fold (fun _ fl acc -> fl :: acc) t.active [])
    |> List.map (fun fl ->
           {
             a_id = Flight.id fl;
             a_session = Flight.session fl;
             a_statement = Flight.statement fl;
             a_strategy = Flight.strategy_name fl;
             a_running = Flight.dispatched fl;
             a_age = Float.max 0.0 (now -. Flight.submitted fl);
             a_steps = Flight.n_steps fl;
           })
    |> List.sort (fun a b -> Int.compare a.a_id b.a_id)
  in
  let s_counters, s_latency =
    with_lock t.stats_lock (fun () ->
        ( Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
          |> List.sort compare,
          Hashtbl.fold
            (fun k h acc ->
              ( k,
                {
                  l_count = Histogram.count h;
                  l_p50 = Histogram.percentile h 0.5;
                  l_p95 = Histogram.percentile h 0.95;
                  l_p99 = Histogram.percentile h 0.99;
                  l_max =
                    (if Histogram.count h = 0 then 0.0
                     else Histogram.max_value h);
                } )
              :: acc)
            t.latency []
          |> List.sort compare ))
  in
  {
    s_admitted = Atomic.get t.admitted;
    s_completed = Atomic.get t.seq;
    s_counters;
    s_active;
    s_recent = ring_snapshot t;
    s_latency;
  }

(* --- text dashboard ---------------------------------------------------- *)

let ms v = Printf.sprintf "%.2fms" (v *. 1000.0)

let counter snap name =
  match List.assoc_opt name snap.s_counters with Some n -> n | None -> 0

let render_record ?(timings = true) buf (r : Flight.record) =
  let open Flight in
  Buffer.add_string buf
    (Printf.sprintf "  #%-4d %-4s %-20s %-12s %-9s rows=%-7d%s" r.r_id
       r.r_session r.r_statement r.r_strategy
       (Flight.status_name r.r_status)
       r.r_row_count
       (if r.r_cache_hit then " cached-plan" else ""));
  if timings then
    Buffer.add_string buf
      (Printf.sprintf "  %s (wait %s)%s" (ms r.r_exec_time) (ms r.r_queue_wait)
         (if r.r_sampled then
            Printf.sprintf "  [sampled %d spans]" (List.length r.r_spans)
          else ""));
  Buffer.add_char buf '\n';
  List.iteri
    (fun i (s : step) ->
      Buffer.add_string buf
        (Printf.sprintf
           "        %2d. %-24s est=%.0f actual=%d replanned=%s remaining=%d%s\n"
           (i + 1) s.subquery s.est_rows s.actual_rows
           (if s.replanned then "yes" else "no")
           s.remaining
           (match s.score with
           | Some sc -> Printf.sprintf " score=%.6g" sc
           | None -> "")))
    r.r_journal;
  if timings && r.r_phases <> [] then begin
    Buffer.add_string buf "        phases:";
    List.iter
      (fun (cat, n, total) ->
        Buffer.add_string buf (Printf.sprintf " %s=%d/%s" cat n (ms total)))
      r.r_phases;
    Buffer.add_char buf '\n'
  end;
  let c = r.r_counters in
  if
    c.intermediate_tables > 0 || c.faults > 0 || c.bypasses > 0
  then
    Buffer.add_string buf
      (Printf.sprintf
         "        counters: intermediates=%d faults=%d bypasses=%d\n"
         c.intermediate_tables c.faults c.bypasses)

let render ?(timings = true) ?(slowest = 8) snap =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "== serving telemetry ==\n";
  Buffer.add_string buf
    (Printf.sprintf
       "admitted=%d completed=%d (ok=%d deadline=%d cancelled=%d failed=%d)\n"
       snap.s_admitted snap.s_completed (counter snap "completed")
       (counter snap "deadline")
       (counter snap "cancelled")
       (counter snap "failed"));
  Buffer.add_string buf
    (Printf.sprintf
       "journal steps=%d intermediates=%d bufpool faults=%d bypasses=%d \
        sampled=%d\n"
       (counter snap "journal_steps")
       (counter snap "intermediate_tables")
       (counter snap "faults") (counter snap "bypasses")
       (counter snap "sampled"));
  let running, queued =
    List.partition (fun a -> a.a_running) snap.s_active
  in
  Buffer.add_string buf
    (Printf.sprintf "in-flight: %d running, %d queued\n" (List.length running)
       (List.length queued));
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "  #%-4d %-4s %-20s %-12s %s  %d steps%s\n" a.a_id
           a.a_session a.a_statement a.a_strategy
           (if a.a_running then "running" else "queued ")
           a.a_steps
           (if timings then Printf.sprintf "  age %s" (ms a.a_age) else "")))
    snap.s_active;
  if timings && snap.s_latency <> [] then begin
    Buffer.add_string buf "latency by status:\n";
    List.iter
      (fun (status, l) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-9s n=%-6d p50=%s p95=%s p99=%s max=%s\n" status
             l.l_count (ms l.l_p50) (ms l.l_p95) (ms l.l_p99) (ms l.l_max)))
      snap.s_latency
  end;
  if snap.s_recent <> [] then
    if timings then begin
      (* slowest first: the flights worth reading the journal of *)
      let by_latency =
        List.sort
          (fun (a : Flight.record) b ->
            match
              Float.compare
                (b.Flight.r_queue_wait +. b.Flight.r_exec_time)
                (a.Flight.r_queue_wait +. a.Flight.r_exec_time)
            with
            | 0 -> Int.compare a.Flight.r_seq b.Flight.r_seq
            | c -> c)
          snap.s_recent
      in
      Buffer.add_string buf
        (Printf.sprintf "slowest recent flights (of %d retained):\n"
           (List.length snap.s_recent));
      List.iteri
        (fun i r -> if i < slowest then render_record ~timings buf r)
        by_latency
    end
    else begin
      (* deterministic form: completion order, no wall-clock *)
      Buffer.add_string buf "recent flights:\n";
      List.iter (render_record ~timings buf) snap.s_recent
    end;
  Buffer.contents buf

(* --- Prometheus-style exposition --------------------------------------- *)

let prom_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus t =
  let snap = snapshot t in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# TYPE qs_flights_admitted_total counter";
  line "qs_flights_admitted_total %d" snap.s_admitted;
  line "# TYPE qs_flights_total counter";
  List.iter
    (fun status ->
      line "qs_flights_total{status=\"%s\"} %d" status (counter snap status))
    [ "completed"; "deadline"; "cancelled"; "failed" ];
  line "# TYPE qs_flights_sampled_total counter";
  line "qs_flights_sampled_total %d" (counter snap "sampled");
  line "# TYPE qs_journal_steps_total counter";
  line "qs_journal_steps_total %d" (counter snap "journal_steps");
  line "# TYPE qs_intermediate_tables_total counter";
  line "qs_intermediate_tables_total %d" (counter snap "intermediate_tables");
  line "# TYPE qs_bufpool_faults_total counter";
  line "qs_bufpool_faults_total %d" (counter snap "faults");
  line "# TYPE qs_bufpool_bypasses_total counter";
  line "qs_bufpool_bypasses_total %d" (counter snap "bypasses");
  let running, queued =
    List.partition (fun a -> a.a_running) snap.s_active
  in
  line "# TYPE qs_in_flight gauge";
  line "qs_in_flight %d" (List.length running);
  line "# TYPE qs_queue_depth gauge";
  line "qs_queue_depth %d" (List.length queued);
  line "# TYPE qs_latency_seconds summary";
  List.iter
    (fun (status, l) ->
      List.iter
        (fun (q, v) ->
          line "qs_latency_seconds{status=\"%s\",quantile=\"%s\"} %s" status q
            (prom_float v))
        [ ("0.5", l.l_p50); ("0.95", l.l_p95); ("0.99", l.l_p99) ];
      line "qs_latency_seconds_count{status=\"%s\"} %d" status l.l_count)
    snap.s_latency;
  Buffer.contents buf

(* --- metrics export ---------------------------------------------------- *)

let metrics t =
  let m = Metrics.create () in
  let snap = snapshot t in
  Metrics.incr ~by:snap.s_admitted m "admitted";
  List.iter
    (fun (name, n) ->
      (* [flights] duplicates [admitted] for a drained server; keep the
         per-status and derived counters *)
      if name <> "flights" then Metrics.incr ~by:n m name)
    snap.s_counters;
  with_lock t.stats_lock (fun () ->
      Hashtbl.iter
        (fun status h -> Metrics.add_histogram m ("turnaround_s:" ^ status) h)
        t.latency);
  m
