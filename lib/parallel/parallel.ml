(* Domain pool. One mutex guards the job list; tasks are distributed by
   atomic index-grabbing so workers never contend on the queue while a
   job is running. The caller always participates in its own job, which
   is what makes size-1 pools sequential and nested jobs deadlock-free. *)

type job = {
  run : int -> unit;  (* must not raise; exceptions are captured inside *)
  n : int;
  next : int Atomic.t;  (* next index to grab *)
  completed : int Atomic.t;  (* tasks finished *)
}

type t = {
  mutex : Mutex.t;
  work_ready : Condition.t;  (* workers: a job was pushed / shutdown *)
  work_done : Condition.t;  (* clients: some job completed its last task *)
  mutable jobs : job list;  (* LIFO: innermost nested job first *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)

let max_size = 64

let parse_size s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some (Int.min n max_size)
  | Some _ | None -> None

let env_var = "CTS_DOMAINS"

let size_from_env () =
  match Sys.getenv_opt env_var with Some s -> parse_size s | None -> None

let override = ref None

let default_size () =
  match !override with
  | Some n -> n
  | None -> (
      match size_from_env () with
      | Some n -> n
      | None -> Int.min 8 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* Drain [job]: grab indices until exhausted. Whoever finishes the last
   task wakes the clients blocked in [run_job]. *)
let[@cts.guarded "atomic"] execute pool job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      job.run i;
      let finished = 1 + Atomic.fetch_and_add job.completed 1 in
      if finished = job.n then begin
        Mutex.lock pool.mutex;
        Condition.broadcast pool.work_done;
        Mutex.unlock pool.mutex
      end;
      go ()
    end
  in
  go ()

let rec find_active = function
  | [] -> None
  | j :: tl -> if Atomic.get j.next < j.n then Some j else find_active tl

let worker pool =
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    let job = ref None in
    while
      (not pool.stop)
      &&
      match find_active pool.jobs with
      | Some j ->
          job := Some j;
          false
      | None -> true
    do
      Condition.wait pool.work_ready pool.mutex
    done;
    Mutex.unlock pool.mutex;
    match !job with
    | Some j -> execute pool j
    | None -> running := false (* stop *)
  done

(* A shut-down pool has no workers and will never complete a pushed
   job: submitting to one is a caller bug (typically a stale handle
   kept across [set_default_size]), surfaced as [Invalid_argument]
   rather than a hang. *)
let check_live who pool =
  Mutex.lock pool.mutex;
  let stopped = pool.stop in
  Mutex.unlock pool.mutex;
  if stopped then invalid_arg (who ^ ": pool is shut down")

let[@cts.guarded "mutex"] run_job pool job =
  if job.n > 0 then begin
    check_live "Parallel.run_job" pool;
    Mutex.lock pool.mutex;
    pool.jobs <- job :: pool.jobs;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    execute pool job;
    Mutex.lock pool.mutex;
    while Atomic.get job.completed < job.n do
      Condition.wait pool.work_done pool.mutex
    done;
    pool.jobs <- List.filter (fun j -> j != job) pool.jobs;
    Mutex.unlock pool.mutex
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let size pool = 1 + List.length pool.domains

let[@cts.guarded "mutex"] shutdown pool =
  Mutex.lock pool.mutex;
  if pool.stop then Mutex.unlock pool.mutex
  else begin
    pool.stop <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.domains;
    Mutex.lock pool.mutex;
    pool.domains <- [];
    Mutex.unlock pool.mutex
  end

let create ?spawn ?size () =
  let spawn = match spawn with Some f -> f | None -> Domain.spawn in
  let requested =
    Int.max 1 (match size with Some s -> Int.min s max_size | None -> default_size ())
  in
  let pool =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      jobs = [];
      stop = false;
      domains = [];
    }
  in
  (* Graceful degradation on resource exhaustion — [Failure] is what
     [Domain.spawn] raises when the runtime cannot allocate another
     domain: keep whatever workers actually spawned and record the
     shortfall. Anything else (Out_of_memory, Stack_overflow,
     Assert_failure, a broken [spawn] hook) is a genuine error: the old
     blanket [with _ -> ()] swallowed those too, turning crashes into
     mysteriously sequential runs. Those re-raise — with the workers
     already spawned shut down first, so no domain leaks. *)
  (try
     for _ = 2 to requested do
       pool.domains <- spawn (fun () -> worker pool) :: pool.domains
     done
   with
  | Failure _ ->
      Obs.incr
        ~n:(requested - 1 - List.length pool.domains)
        Obs.Pool_spawn_shortfall
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown pool;
      Printexc.raise_with_backtrace e bt);
  pool

let with_pool ?size f =
  let pool = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Map / iter                                                          *)

(* Each task stores what it produced in its own slot: [Ok v], or
   [Error] with the exception and its backtrace. The caller reads the
   slots in task-index order, so the exception it re-raises is the
   lowest-index failure, the one [Array.map] raises on a 1-domain pool.
   Observability sharding: each task runs inside an [Obs.task_enter] /
   [Obs.task_leave] bracket so its counter increments and spans land in
   a task-private accumulator on whatever domain picked it up; the
   deltas are absorbed into the caller in task-index order after the
   job, so counter totals are identical at every pool size. On the
   sequential fast path tasks record into the caller's accumulator
   directly, which yields the same totals. The submission context
   captured here parents each task's trace span under the caller's
   open phase, so the Chrome trace shows which coordinator phase
   spawned which pool tasks. *)
let map pool f arr =
  check_live "Parallel.map" pool;
  let n = Array.length arr in
  if n = 0 then [||]
  else if n = 1 || size pool <= 1 then Array.map f arr
  else begin
    (* [run_job] returns only once every task has filled its slot. *)
    let unfilled = Invalid_argument "Parallel.map: unfilled slot" in
    let slots = Array.make n (Error (unfilled, Printexc.get_callstack 0)) in
    let deltas = Array.make n Obs.no_delta in
    let ctx = Obs.task_context () in
    let[@cts.catch_all_ok
         "captured with its backtrace and re-raised on the coordinator"] run i =
      let token = Obs.task_enter ~ctx () in
      (slots.(i) <-
         match f arr.(i) with
         | v -> Ok v
         | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      deltas.(i) <- Obs.task_leave token
    in
    run_job pool { run; n; next = Atomic.make 0; completed = Atomic.make 0 };
    Array.iter Obs.task_absorb deltas;
    Array.map
      (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      slots
  end

(* ------------------------------------------------------------------ *)
(* Shared default pool                                                 *)

let default_mutex = Mutex.create ()
let default_ref = ref None

let () =
  at_exit (fun () ->
      match !default_ref with Some p -> shutdown p | None -> ())

let[@cts.guarded "mutex:default_mutex"] default_pool () =
  Mutex.lock default_mutex;
  let pool =
    match !default_ref with
    | Some p -> p
    | None ->
        let p = create () in
        default_ref := Some p;
        p
  in
  Mutex.unlock default_mutex;
  pool

let set_default_size n =
  let n = Int.max 1 (Int.min n max_size) in
  Mutex.lock default_mutex;
  override := Some n;
  (match !default_ref with
  | Some p when size p <> n ->
      shutdown p;
      default_ref := None
  | Some _ | None -> ());
  Mutex.unlock default_mutex
