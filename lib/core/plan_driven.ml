module Table = Qs_storage.Table
module Query = Qs_query.Query
module Expr = Qs_query.Expr
module Fragment = Qs_stats.Fragment
module Optimizer = Qs_plan.Optimizer
module Physical = Qs_plan.Physical
module Executor = Qs_exec.Executor
module Temp = Qs_exec.Temp
module Timer = Qs_util.Timer
module Span = Qs_util.Span

type selector =
  | Deepest
  | Max_uncertainty
  | Phi of Ssa.policy

type policy = {
  name : string;
  selector : selector;
  observe_breakers_only : bool;
  threshold : float;
  analyze_temps : bool;
  always_replan : bool;
  count_all_mats : bool;
}

let reopt =
  {
    name = "reopt";
    selector = Deepest;
    observe_breakers_only = true;
    threshold = 2.0;
    analyze_temps = false;
    always_replan = false;
    count_all_mats = false;
  }

let pop =
  {
    name = "pop";
    selector = Deepest;
    observe_breakers_only = false;
    threshold = 2.0;
    analyze_temps = false;
    always_replan = false;
    count_all_mats = true;
  }

let ief =
  {
    name = "ief";
    selector = Max_uncertainty;
    observe_breakers_only = false;
    threshold = 1.0;
    analyze_temps = false;
    always_replan = true;
    count_all_mats = true;
  }

let perron =
  {
    name = "perron19";
    selector = Deepest;
    observe_breakers_only = false;
    threshold = 32.0;
    analyze_temps = true;
    always_replan = false;
    count_all_mats = true;
  }

let optrange =
  {
    name = "optrange";
    selector = Deepest;
    observe_breakers_only = false;
    threshold = 8.0;
    analyze_temps = false;
    always_replan = false;
    count_all_mats = false;
  }

(* Executable joins: both children are scans, so the subtree can run and
   materialize without recursing into other joins. *)
let executable_joins plan =
  List.filter
    (fun (n : Physical.t) ->
      match n.Physical.node with
      | Physical.Join
          {
            left = { node = Physical.Scan _; _ };
            right = { node = Physical.Scan _; _ };
            _;
          } ->
          true
      | _ -> false)
    (Physical.joins_post_order plan)

(* Does [node] feed the build side of its parent hash join (a pipeline
   breaker in Volcano terms)? The root feeds the client: not a breaker. *)
let feeds_build plan (node : Physical.t) =
  let rec parent_of (p : Physical.t) =
    match p.Physical.node with
    | Physical.Scan _ -> None
    | Physical.Join j ->
        if j.Physical.left.Physical.id = node.Physical.id
           || j.Physical.right.Physical.id = node.Physical.id
        then Some p
        else (
          match parent_of j.Physical.left with
          | Some x -> Some x
          | None -> parent_of j.Physical.right)
  in
  match parent_of plan with
  | Some { Physical.node = Physical.Join j; _ } ->
      j.Physical.method_ = Physical.Hash
      && j.Physical.left.Physical.id = node.Physical.id
  | _ -> false

(* CE-uncertainty proxy for IEF: string-pattern filters are the least
   trustworthy estimates, then other filters, then join selectivity. *)
let rec pred_uncertainty (p : Expr.pred) =
  match p with
  | Expr.Like _ -> 2.0
  | Expr.Or ps -> 1.0 +. List.fold_left (fun a q -> a +. pred_uncertainty q) 0.0 ps
  | Expr.In_list _ -> 1.5
  | _ -> 1.0

let node_uncertainty (n : Physical.t) =
  match n.Physical.node with
  | Physical.Scan _ -> 0.0
  | Physical.Join j ->
      let scans_filters (c : Physical.t) =
        match c.Physical.node with
        | Physical.Scan i -> i.Fragment.filters
        | _ -> []
      in
      List.fold_left
        (fun a p -> a +. pred_uncertainty p)
        (float_of_int (List.length j.Physical.preds))
        (scans_filters j.Physical.left @ scans_filters j.Physical.right)

let select_node selector candidates =
  match candidates with
  | [] -> None
  | first :: _ -> (
      match selector with
      | Deepest -> Some first
      | Max_uncertainty ->
          Some
            (List.fold_left
               (fun best n ->
                 if node_uncertainty n > node_uncertainty best then n else best)
               first candidates)
      | Phi p ->
          Some
            (List.fold_left
               (fun best (n : Physical.t) ->
                 let score (m : Physical.t) =
                   Ssa.phi p ~cost:m.Physical.est_cost ~size:m.Physical.est_rows
                 in
                 if score n < score best then n else best)
               first candidates))

let qerror = Qs_obs.Qerror.value

let needed_columns (q : Query.t) (frag : Fragment.t) ~provides =
  if q.Query.output = [] then [] (* SELECT *: every column may be needed *)
  else
  let pending =
    List.filter
      (fun p ->
        not (List.for_all (fun a -> List.mem a provides) (Expr.rels_of_pred p)))
      frag.Fragment.preds
  in
  let wanted = q.Query.output @ List.concat_map Expr.cols_of_pred pending in
  List.filter (fun (c : Expr.colref) -> List.mem c.Expr.rel provides) wanted

let run policy ?selector ctx (q : Query.t) =
  let selector = Option.value selector ~default:policy.selector in
  let start = Timer.now () in
  Strategy.guard ctx @@ fun () ->
  let cat = Strategy.catalog ctx in
  let optimize frag =
    (Optimizer.optimize ?spans:ctx.Strategy.spans
       ?memo:ctx.Strategy.dp_memo cat ctx.Strategy.estimator frag)
      .Optimizer.plan
  in
  let fresh_temp = Temp.namer () in
  let frag = ref (Strategy.fragment_of_query ctx q) in
  let plan = ref (optimize !frag) in
  let iterations = ref [] in
  let iter_index = ref 0 in
  let finished_table = ref None in
  while !finished_table = None do
    incr iter_index;
    let t0 = Timer.now () in
    match select_node selector (executable_joins !plan) with
    | None ->
        (* no executable join left: run the remaining plan to completion *)
        let table, _ =
          Executor.run ?deadline:!(ctx.Strategy.deadline) ?cancel:ctx.Strategy.cancel
            ?spans:ctx.Strategy.spans ~project:q.Query.output !plan
        in
        finished_table := Some table;
        iterations :=
          Strategy.step ctx ~start:t0 q
            {
              Strategy.index = !iter_index;
              description = "final";
              est_rows = !plan.Physical.est_rows;
              actual_rows = Table.n_rows table;
              elapsed = 0.0;
              mat_bytes = 0;
              materialized = false;
              replanned = false;
              score = None;
              remaining = 0;
            }
          :: !iterations
    | Some node ->
        let provides = node.Physical.rels in
        let keep = needed_columns q !frag ~provides in
        let table, _ =
          Executor.run ?deadline:!(ctx.Strategy.deadline) ?cancel:ctx.Strategy.cancel
            ?spans:ctx.Strategy.spans ~project:keep node
        in
        let actual = Table.n_rows table in
        let observed =
          (not policy.observe_breakers_only) || feeds_build !plan node
        in
        let name = fresh_temp () in
        let temp_tbl = Temp.materialize ~name ~keep table in
        let subtree_frag = Fragment.restrict !frag (Physical.leaves node) in
        (* all four baselines ANALYZE their temps by default (§6.4);
           the context flag is the experiment's off switch *)
        let collect = ctx.Strategy.collect_stats in
        ignore policy.analyze_temps;
        let temp_input =
          Span.span ctx.Strategy.spans Span.Analyze ("analyze:" ^ name) (fun () ->
              Temp.to_input ~name ~provenance:(Fragment.key subtree_frag)
                ~provides ~collect_stats:collect temp_tbl)
        in
        (match ctx.Strategy.dp_memo with
        | Some m -> Qs_plan.Dp_memo.bump m ~aliases:provides
        | None -> ());
        frag := Fragment.substitute !frag ~temp:temp_input;
        let triggered =
          observed && qerror ~est:node.Physical.est_rows ~actual > policy.threshold
        in
        let replanned = policy.always_replan || triggered in
        if replanned then plan := optimize !frag
        else begin
          let scan_replacement =
            Physical.scan temp_input ~est_rows:(float_of_int actual)
              ~est_cost:
                (Qs_plan.Cost_model.scan ~rows:(float_of_int actual) ~n_filters:0)
          in
          plan := Physical.replace !plan ~id:node.Physical.id ~by:scan_replacement
        end;
        iterations :=
          Strategy.step ctx ~start:t0 q
            {
              Strategy.index = !iter_index;
              description =
                Printf.sprintf "%s(%s)" policy.name (String.concat "," provides);
              est_rows = node.Physical.est_rows;
              actual_rows = actual;
              elapsed = 0.0;
              mat_bytes = Table.byte_size temp_tbl;
              materialized = policy.count_all_mats || triggered;
              replanned;
              score = None;
              remaining = List.length (executable_joins !plan);
            }
          :: !iterations;
        Qs_util.Cancel.check ctx.Strategy.cancel;
        (match !(ctx.Strategy.deadline) with
        | Some d when Timer.now () > d -> raise Executor.Timeout
        | _ -> ())
  done;
  let table = Option.get !finished_table in
  let result = Executor.project ~name:q.Query.name table q.Query.output in
  Strategy.finished ~start ~result ~iterations:(List.rev !iterations)

let strategy ?selector policy =
  let name =
    match selector with
    | None | Some Deepest when policy.selector = Deepest -> policy.name
    | Some (Phi p) -> policy.name ^ "+" ^ Ssa.policy_name p
    | Some Max_uncertainty -> policy.name ^ "+maxu"
    | Some Deepest -> policy.name ^ "+deepest"
    | None -> policy.name
  in
  { Strategy.name; run = run policy ?selector }
