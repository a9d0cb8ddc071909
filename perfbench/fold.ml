(* Folding a span recording into per-layer self time.

   A layer's self time is its span's duration minus the part of that
   interval covered by its child spans on the same track. Children are
   found by interval containment, not by the recorded parent id: some
   spans are recorded after the fact ([Span.add]) and so never were the
   open parent of the spans they contain.

   Markers are left out before folding: zero-length spans, the
   [reopt-step] journal (written after each re-optimization step over
   an interval its sibling [pipeline] and [optimize] spans already
   cover), [dp-memo] consultations, and the [serve] and [pool-wait]
   waits, which are time a request waited, not time a layer was busy.

   Only spans inside a root span count; [roots] is the total duration
   of the top-level roots, so with a consistent fold
   [roots - total_self] is zero up to clock jitter. Busy spans outside
   every root (such as prefetch reads on the I/O worker's track) are
   summed into [unattributed]. *)

module Span = Qs_util.Span

let is_marker (s : Span.span) =
  s.Span.dur <= 0.0
  ||
  match s.Span.cat with
  | Span.Reopt_step | Span.Dp_memo | Span.Serve | Span.Pool_wait -> true
  | _ -> false

type t = {
  self : (string, float) Hashtbl.t;  (** layer -> seconds *)
  calls : (string, int) Hashtbl.t;  (** layer -> folded spans *)
  roots : float;
  unattributed : float;
}

type frame = {
  span : Span.span;
  stop : float;
  mutable covered : float;
  attributed : bool;
}

let eps = 1e-9

let fold ~is_root ~layer spans =
  let self = Hashtbl.create 16 and calls = Hashtbl.create 16 in
  let roots = ref 0.0 and unattributed = ref 0.0 in
  let close f =
    if f.attributed then begin
      let l = layer f.span in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt self l) in
      Hashtbl.replace self l (prev +. f.span.Span.dur -. f.covered);
      Hashtbl.replace calls l
        (1 + Option.value ~default:0 (Hashtbl.find_opt calls l))
    end
  in
  let by_track = Hashtbl.create 4 in
  List.iter
    (fun (s : Span.span) ->
      if not (is_marker s) then
        Hashtbl.replace by_track s.Span.track
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_track s.Span.track)))
    spans;
  Hashtbl.iter
    (fun _ track_spans ->
      let sorted =
        List.sort
          (fun (a : Span.span) (b : Span.span) ->
            match Float.compare a.Span.start b.Span.start with
            | 0 -> (
                match Float.compare b.Span.dur a.Span.dur with
                | 0 -> Int.compare a.Span.id b.Span.id
                | c -> c)
            | c -> c)
          track_spans
      in
      let stack = ref [] in
      List.iter
        (fun (s : Span.span) ->
          let rec pop () =
            match !stack with
            | f :: rest when f.stop <= s.Span.start +. eps ->
                close f;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          let stop = s.Span.start +. s.Span.dur in
          let attributed =
            match !stack with
            | parent :: _ ->
                parent.covered <-
                  parent.covered +. (Float.min stop parent.stop -. s.Span.start);
                parent.attributed
            | [] ->
                if is_root s then roots := !roots +. s.Span.dur
                else unattributed := !unattributed +. s.Span.dur;
                is_root s
          in
          stack := { span = s; stop; covered = 0.0; attributed } :: !stack)
        sorted;
      List.iter close !stack)
    by_track;
  { self; calls; roots = !roots; unattributed = !unattributed }

let self_s t layer = Option.value ~default:0.0 (Hashtbl.find_opt t.self layer)
let calls t layer = Option.value ~default:0 (Hashtbl.find_opt t.calls layer)
let total_self t = Hashtbl.fold (fun _ v a -> a +. v) t.self 0.0
