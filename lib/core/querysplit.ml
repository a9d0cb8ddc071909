module Catalog = Qs_storage.Catalog
module Table = Qs_storage.Table
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Temp = Qs_exec.Temp
module Timer = Qs_util.Timer
module Rng = Qs_util.Rng
module Span = Qs_util.Span

type config = { qsa : Qsa.policy; ssa : Ssa.policy }

let default_config = { qsa = Qsa.RCenter; ssa = Ssa.Phi4 }

(* One live entry of the subquery set: the fragment plus bookkeeping. *)
type entry = {
  order : int;  (** position in the global_deep schedule *)
  label : string;
  mutable frag : Fragment.t;
}

(* A subquery whose inputs did not change since the previous iteration
   keeps its plan: the fragment key names the inputs, temps included. *)
let optimize_cached cache ctx frag =
  let key = Fragment.key frag in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r =
        Optimizer.optimize ?spans:ctx.Strategy.spans
          ?memo:ctx.Strategy.dp_memo (Strategy.catalog ctx) ctx.Strategy.estimator
          frag
      in
      Hashtbl.replace cache key r;
      r

(* The global_deep baseline order: walk the global plan's joins bottom-up;
   a subquery is scheduled at the first join whose relations it contains. *)
let global_deep_order ctx (q : Query.t) (frags : Fragment.t list) =
  let rng = Rng.create ctx.Strategy.seed in
  let global = Strategy.fragment_of_query ctx q in
  let plan =
    (Optimizer.optimize ?spans:ctx.Strategy.spans
       ?memo:ctx.Strategy.dp_memo (Strategy.catalog ctx) ctx.Strategy.estimator
       global)
      .plan
  in
  let unordered = ref (List.mapi (fun i f -> (i, f)) frags) in
  let ordered = ref [] in
  List.iter
    (fun (join : Physical.t) ->
      let r = join.Physical.rels in
      let matching =
        List.filter
          (fun (_, f) -> List.for_all (fun a -> List.mem a (Fragment.provides f)) r)
          !unordered
      in
      match matching with
      | [] -> ()
      | _ ->
          let pick = List.nth matching (Rng.int rng (List.length matching)) in
          ordered := fst pick :: !ordered;
          unordered := List.filter (fun (i, _) -> i <> fst pick) !unordered)
    (Physical.joins_post_order plan);
  List.rev !ordered @ List.map fst !unordered

(* Columns a materialized result must keep: whatever the rest of the query
   still references — pending predicates of the other subqueries plus the
   final projection. *)
let needed_columns (q : Query.t) (others : entry list) ~provides =
  if q.Query.output = [] then [] (* SELECT *: every column may be needed *)
  else
    let from_preds =
      List.concat_map
        (fun e -> List.concat_map Expr.cols_of_pred e.frag.Fragment.preds)
        others
    in
    let wanted = q.Query.output @ from_preds in
    let mine = List.filter (fun (c : Expr.colref) -> List.mem c.Expr.rel provides) wanted in
    (* materializing zero columns would lose the row count; fall back to all *)
    if mine = [] then [] else mine

let run config ctx (q : Query.t) =
  let start = Timer.now () in
  Strategy.guard ctx @@ fun () ->
  let subqueries = Qsa.split (Strategy.catalog ctx) q config.qsa in
  let frags = List.map (Strategy.fragment_of_query ctx) subqueries in
  let schedule =
    match config.ssa with
    | Ssa.Global_deep -> global_deep_order ctx q frags
    | _ -> List.mapi (fun i _ -> i) frags
  in
  let entries =
    List.map2
      (fun (sq : Query.t) f ->
        let idx = ref 0 in
        List.iteri (fun pos i -> if List.nth frags i == f then idx := pos) schedule;
        { order = !idx; label = sq.Query.name; frag = f })
      subqueries frags
  in
  let plans = Hashtbl.create 32 in
  let fresh_temp = Temp.namer () in
  let remaining = ref entries in
  let isolated : Table.t list ref = ref [] in
  let iterations = ref [] in
  let final : Table.t option ref = ref None in
  let iter_index = ref 0 in
  while !final = None do
    incr iter_index;
    let t0 = Timer.now () in
    if !remaining = [] then begin
      (* the last executed subqueries were all absorbed into temps: the
         isolated results hold the whole answer *)
      let merged = Executor.cartesian ~name:q.Query.name (List.rev !isolated) in
      final := Some (Executor.project ~name:q.Query.name merged q.Query.output)
    end
    else begin
    (* rank all remaining subqueries with fresh optimizer calls *)
    let ranked =
      List.map
        (fun e ->
          let r = optimize_cached plans ctx e.frag in
          let score =
            match config.ssa with
            | Ssa.Global_deep -> float_of_int e.order
            | phi -> Ssa.phi phi ~cost:r.Optimizer.est_cost ~size:r.Optimizer.est_rows
          in
          (e, r, score))
        !remaining
    in
    let chosen, plan_res, chosen_score =
      List.fold_left
        (fun ((_, _, best) as acc) ((_, _, s) as cand) ->
          if s < best then cand else acc)
        (List.hd ranked) (List.tl ranked)
    in
    let table, _ =
      Executor.run ?deadline:!(ctx.Strategy.deadline) ?cancel:ctx.Strategy.cancel
        ?spans:ctx.Strategy.spans plan_res.Optimizer.plan
    in
    (* the re-optimization journal: one entry (flight step + span) per
       iteration *)
    let journal ~actual ~replanned ~remaining_n =
      Strategy.journal ctx ~score:chosen_score ~subquery:chosen.label
        ~est_rows:plan_res.Optimizer.est_rows ~actual_rows:actual ~replanned
        ~remaining:remaining_n
        ~name:(q.Query.name ^ "/" ^ chosen.label)
        ~start:t0 ()
    in
    let others = List.filter (fun e -> e != chosen) !remaining in
    remaining := others;
    let actual = Table.n_rows table in
    if others = [] then begin
      (* last subquery: merge with any isolated results and project *)
      let merged = Executor.cartesian ~name:q.Query.name (table :: List.rev !isolated) in
      let projected = Executor.project ~name:q.Query.name merged q.Query.output in
      final := Some projected;
      journal ~actual ~replanned:false ~remaining_n:0;
      iterations :=
        {
          Strategy.index = !iter_index;
          description = chosen.label;
          est_rows = plan_res.Optimizer.est_rows;
          actual_rows = actual;
          elapsed = Timer.now () -. t0;
          mat_bytes = 0;
          materialized = false;
          replanned = false;
        }
        :: !iterations
    end
    else begin
      let provides = Fragment.provides chosen.frag in
      let keep = needed_columns q others ~provides in
      let name = fresh_temp () in
      let temp_tbl = Temp.materialize ~name ~keep table in
      let temp_input =
        Span.span ctx.Strategy.spans Span.Analyze ("analyze:" ^ name) (fun () ->
            Temp.to_input ~name ~provenance:(Fragment.key chosen.frag) ~provides
              ~collect_stats:ctx.Strategy.collect_stats temp_tbl)
      in
      (* the temp's aliases now carry new statistics: memoized DP entries
         over them must never be replayed *)
      (match ctx.Strategy.dp_memo with
      | Some m -> Qs_plan.Dp_memo.bump m ~aliases:provides
      | None -> ());
      (* substitute into overlapping subqueries; drop the fully-covered *)
      let overlapped = ref false in
      let survivors =
        List.filter_map
          (fun e ->
            if Fragment.overlaps e.frag provides then begin
              overlapped := true;
              let substituted = Fragment.substitute e.frag ~temp:temp_input in
              let covered =
                List.for_all (fun a -> List.mem a provides) (Fragment.provides e.frag)
              in
              if covered then None
              else begin
                e.frag <- substituted;
                Some e
              end
            end
            else Some e)
          others
      in
      remaining := survivors;
      if not !overlapped then isolated := temp_tbl :: !isolated
      else if not (List.exists (fun e -> Fragment.overlaps e.frag provides) survivors)
      then
        (* every overlapping subquery was fully covered: the temp holds
           their combined answer and nothing else references it *)
        isolated := temp_tbl :: !isolated;
      journal ~actual ~replanned:!overlapped
        ~remaining_n:(List.length survivors);
      iterations :=
        {
          Strategy.index = !iter_index;
          description = chosen.label;
          est_rows = plan_res.Optimizer.est_rows;
          actual_rows = actual;
          elapsed = Timer.now () -. t0;
          mat_bytes = Table.byte_size temp_tbl;
          materialized = true;
          replanned = true;
        }
        :: !iterations;
      (* the executor may only notice the deadline (or a cancellation)
         inside long joins; make sure iteration boundaries observe both *)
      Qs_util.Cancel.check ctx.Strategy.cancel;
      match !(ctx.Strategy.deadline) with
      | Some d when Timer.now () > d -> raise Executor.Timeout
      | _ -> ()
    end
    end
  done;
  Strategy.finished ~start ~result:(Option.get !final)
    ~iterations:(List.rev !iterations)

let strategy config =
  {
    Strategy.name =
      Printf.sprintf "querysplit(%s,%s)" (Qsa.policy_name config.qsa)
        (Ssa.policy_name config.ssa);
    run = run config;
  }

let subquery_plans ctx q config =
  let subqueries = Qsa.split (Strategy.catalog ctx) q config.qsa in
  List.map
    (fun sq ->
      let frag = Strategy.fragment_of_query ctx sq in
      let r =
        Optimizer.optimize ?spans:ctx.Strategy.spans
          ?memo:ctx.Strategy.dp_memo (Strategy.catalog ctx) ctx.Strategy.estimator
          frag
      in
      (sq, r.Optimizer.est_cost, r.Optimizer.est_rows))
    subqueries
