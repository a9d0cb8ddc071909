(* Why a query counted as failed. The executor raises the same
   [Timeout] for its per-operator row cap as for a deadline, and the
   server reports both as [Deadline_exceeded]; the two are told apart
   by comparing the elapsed time with the deadline, so a later change
   to the cap is still read correctly. *)

type cause = Deadline | Row_cap | Cancelled | Exception | Digest_mismatch

let all = [ Deadline; Row_cap; Cancelled; Exception; Digest_mismatch ]

let name = function
  | Deadline -> "deadline"
  | Row_cap -> "row_cap"
  | Cancelled -> "cancelled"
  | Exception -> "exception"
  | Digest_mismatch -> "digest_mismatch"

(* What the engine reported for one query. *)
type status =
  | Completed of string  (** result digest *)
  | Timed_out  (** executor [Timeout], strategy [timed_out] or [Deadline_exceeded] *)
  | Was_cancelled
  | Raised of string

(* A timeout that fires this long before the deadline cannot have been
   the deadline: deadline checks only ever fire late. *)
let tolerance_s = 0.001

let classify ~deadline_s ~elapsed_s ~expected = function
  | Completed d -> if d = expected then None else Some Digest_mismatch
  | Timed_out ->
      if elapsed_s >= deadline_s -. tolerance_s then Some Deadline else Some Row_cap
  | Was_cancelled -> Some Cancelled
  | Raised _ -> Some Exception

type tally = (cause * int ref) list

let tally () : tally = List.map (fun c -> (c, ref 0)) all
let add (t : tally) c = incr (List.assoc c t)
let total (t : tally) = List.fold_left (fun a (_, n) -> a + !n) 0 t
let count (t : tally) c = !(List.assoc c t)
