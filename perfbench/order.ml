(* The order statements are run in: one permutation of the pool drawn
   from [rng], rotated by [rotation]. The benchmark draws the
   permutation from the fixed data seed and lets the run seed pick only
   the rotation, so runs with different seeds replay one order from
   different starting points. With a fresh shuffle per run, the
   spilled workload's buffer-pool hits and the serving workload's
   queueing changed with every seed. *)
let rotated rng pool ~rotation =
  let k = Array.length pool in
  let order = Array.init k Fun.id in
  Qs_util.Rng.shuffle rng order;
  Array.init k (fun i -> pool.(order.((i + rotation) mod k)))
