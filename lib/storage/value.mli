(** Runtime values and column types.

    A single dynamically-typed value representation is shared by the storage
    layer, the expression evaluator and the statistics machinery. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr

val compare : t -> t -> int
(** Total order. [Null] sorts first; values of distinct types are ordered by
    constructor so heterogeneous keys still index deterministically. [Int]
    and [Float] compare numerically against each other. *)

val equal : t -> t -> bool

val hash : t -> int

val is_null : t -> bool

val type_of : t -> ty option
(** [None] for [Null]. *)

val byte_size : t -> int
(** Approximate in-memory footprint, used for the paper's materialization
    memory accounting (Table 4). *)

val to_string : t -> string
(** Display rendering (floats with [%g]) for samples, EXPLAIN and error
    messages. Not injective — [Int 1] and [Str "1"] print alike — so
    nothing compares results through it: {!Table.digest} hashes each
    value's type tag and exact payload. *)

val pp : Format.formatter -> t -> unit

val pp_ty : Format.formatter -> ty -> unit

val ty_to_string : ty -> string

(* Convenience accessors; raise [Invalid_argument] on type mismatch. *)

val as_int : t -> int
val as_float : t -> float
(** [as_float] also widens [Int]. *)

val as_string : t -> string
val as_bool : t -> bool
