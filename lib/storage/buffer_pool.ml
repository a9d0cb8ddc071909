(* Bounded cache of resident chunk frames with CLOCK eviction.

   One mutex guards the whole pool: lookups, victim search and counter
   updates are short critical sections; the actual disk reads happen
   outside the lock, on the faulting domain. A frame moves through two
   states:

     Loading  — some domain is actively reading the frame from disk.
                Waiters (concurrent serving sessions faulting the same
                chunk) block on the condition variable; the loader is
                running, so it will complete and broadcast.
     Loaded   — frame resident; hits set the CLOCK reference bit. Its
                column blocks are read on first touch and then stay
                with the frame, shared by every later hit.

   Eviction only considers unpinned Loaded frames; when every frame is
   pinned or in flight the read bypasses the pool entirely (correct,
   just uncached), so the pool can be arbitrarily small — capacity 1
   still executes every query. *)

module Span = Qs_util.Span

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  bypasses : int;
  evictions : int;
}

type state = Loading | Loaded of Columnar.t

type frame = {
  file : Chunk_file.t;
  idx : int;
  mutable state : state;
  mutable pins : int;
  mutable refbit : bool;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  capacity : int;
  slots : frame option array;
  index : (int * int, int) Hashtbl.t;  (* (file id, chunk idx) -> slot *)
  mutable hand : int;
  mutable tracer : Span.t option;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable bypasses : int;
  mutable evictions : int;
}

let create ~capacity () =
  let capacity = max 1 capacity in
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    capacity;
    slots = Array.make capacity None;
    index = Hashtbl.create (4 * capacity);
    hand = 0;
    tracer = None;
    hits = 0;
    misses = 0;
    coalesced = 0;
    bypasses = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let set_tracer t tr = t.tracer <- tr

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      coalesced = t.coalesced;
      bypasses = t.bypasses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.mutex;
  s

let reset_stats t =
  Mutex.lock t.mutex;
  t.hits <- 0;
  t.misses <- 0;
  t.coalesced <- 0;
  t.bypasses <- 0;
  t.evictions <- 0;
  Mutex.unlock t.mutex

let pinned t =
  Mutex.lock t.mutex;
  let n =
    Array.fold_left
      (fun acc -> function Some fr -> acc + fr.pins | None -> acc)
      0 t.slots
  in
  Mutex.unlock t.mutex;
  n

let resident t =
  Mutex.lock t.mutex;
  let n =
    Array.fold_left
      (fun acc -> function
        | Some { state = Loaded _; _ } -> acc + 1
        | _ -> acc)
      0 t.slots
  in
  Mutex.unlock t.mutex;
  n

(* A frame fault reads the frame's header and directory; each column
   block is read and decoded on the chunk's first touch of its column.
   Both run inside an [io] span named [fault] (a block's carries its
   column too), recorded by the tracer attached when the read runs, on
   the reading domain. *)
let read_frame t file idx =
  let args =
    [ ("file", Filename.basename (Chunk_file.path file)); ("chunk", string_of_int idx) ]
  in
  let block ~col load =
    Span.span ~args:(args @ [ ("col", string_of_int col) ]) t.tracer Span.Io "fault" load
  in
  Span.span ~args t.tracer Span.Io "fault" (fun () -> Chunk_file.read ~block file idx)

(* Victim slot under the mutex: a free slot if any, else CLOCK
   second-chance over unpinned Loaded frames. Returns [None] when
   everything is pinned or in flight. *)
let find_slot t =
  let free = ref None in
  Array.iteri
    (fun i s -> if s = None && !free = None then free := Some i)
    t.slots;
  match !free with
  | Some _ as s -> s
  | None ->
      let victim = ref None in
      let steps = ref 0 in
      while !victim = None && !steps < 2 * t.capacity do
        incr steps;
        let i = t.hand in
        t.hand <- (t.hand + 1) mod t.capacity;
        match t.slots.(i) with
        | Some fr when fr.pins = 0 -> (
            match fr.state with
            | Loaded _ when not fr.refbit ->
                t.evictions <- t.evictions + 1;
                Hashtbl.remove t.index (Chunk_file.id fr.file, fr.idx);
                t.slots.(i) <- None;
                victim := Some i
            | Loaded _ -> fr.refbit <- false
            | Loading -> ())
        | _ -> ()
      done;
      !victim

(* Load a frame this caller owns (state already set to Loading, mutex
   NOT held). On failure the frame is torn down so waiters retry and
   observe the exception on their own read. *)
let load_owned t fr ~pin =
  let chunk =
    try read_frame t fr.file fr.idx
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock t.mutex;
      let key = (Chunk_file.id fr.file, fr.idx) in
      (match Hashtbl.find_opt t.index key with
      | Some si -> (
          match t.slots.(si) with
          | Some fr' when fr' == fr ->
              Hashtbl.remove t.index key;
              t.slots.(si) <- None
          | _ -> ())
      | None -> ());
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      Printexc.raise_with_backtrace e bt
  in
  Mutex.lock t.mutex;
  fr.state <- Loaded chunk;
  fr.refbit <- true;
  if pin then fr.pins <- fr.pins + 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  chunk

let unpin t file idx =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.index (Chunk_file.id file, idx) with
  | Some si -> (
      match t.slots.(si) with
      | Some fr when fr.pins > 0 -> fr.pins <- fr.pins - 1
      | _ -> ())
  | None -> ());
  Mutex.unlock t.mutex

(* The faulting read path. Returns the chunk plus whether a pin was
   actually taken (a bypass read has no frame to pin). *)
let rec acquire t file idx ~pin =
  let key = (Chunk_file.id file, idx) in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.index key with
  | Some si -> (
      let fr =
        match t.slots.(si) with
        | Some fr -> fr
        | None -> assert false (* index and slots move together *)
      in
      match fr.state with
      | Loaded chunk ->
          t.hits <- t.hits + 1;
          fr.refbit <- true;
          if pin then fr.pins <- fr.pins + 1;
          Mutex.unlock t.mutex;
          (chunk, pin)
      | Loading ->
          (* the loader is actively running on some domain: wait for its
             broadcast, then re-resolve (the frame may have been torn
             down if the load failed, or even evicted and re-entered) *)
          t.coalesced <- t.coalesced + 1;
          Condition.wait t.cond t.mutex;
          Mutex.unlock t.mutex;
          acquire t file idx ~pin)
  | None -> (
      match find_slot t with
      | Some si ->
          let fr = { file; idx; state = Loading; pins = 0; refbit = false } in
          t.slots.(si) <- Some fr;
          Hashtbl.replace t.index key si;
          t.misses <- t.misses + 1;
          Mutex.unlock t.mutex;
          (load_owned t fr ~pin, pin)
      | None ->
          (* every frame pinned or in flight: read around the pool *)
          t.bypasses <- t.bypasses + 1;
          Mutex.unlock t.mutex;
          (read_frame t file idx, false))

let get t file idx = fst (acquire t file idx ~pin:false)

let with_pin t file idx f =
  let chunk, pinned = acquire t file idx ~pin:true in
  if pinned then
    Fun.protect ~finally:(fun () -> unpin t file idx) (fun () -> f chunk)
  else f chunk
