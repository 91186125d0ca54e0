(* The one batch engine. nAdroid analyses each app on its own, so a
   batch is plumbing around the single-app {!Cache.analyze}: replay the
   journal, analyze each remaining app in process or in a supervised
   worker (through the cache or not), append its record to the journal,
   and hand every result to the caller in input order. The CLI, golden,
   faultfuzz and the bench drivers all run their batches here. *)

type result = (Cache.entry * Cache.outcome, Fault.t) Stdlib.result

let escaped_prefix = "exception escaped isolation: "

let escaped = function
  | Fault.Internal msg -> String.starts_with ~prefix:escaped_prefix msg
  | _ -> false

let analyze supervisor ?cache ~config ~file src : result =
  match supervisor with
  | Some sp ->
      Result.map (fun e -> (e, Cache.Miss)) (Supervise.analyze sp ~config ?cache ~file src)
  | None -> Fault.wrap (fun () -> Cache.analyze ~config ?cache ~file src)

let run ?jobs ?(supervise = false) ?heartbeat ?cache ?journal ?(resume = false) ?stop
    ?(on_journal_error = fun _ _ -> ()) ?(config = Pipeline.default_config)
    (inputs : (string * (unit -> string)) array) (emit : int -> result -> unit) : int =
  let journal = Option.map (fun path -> Journal.open_ ~path ~resume) journal in
  let replayed =
    match journal with Some (_, records) -> Journal.latest records | None -> Hashtbl.create 0
  in
  let supervisor = if supervise then Some (Supervise.create ?jobs ?heartbeat ()) else None in
  let reused = Atomic.make 0 in
  (* every failure the task expects is returned as its own fault, so an
     exception that reaches [stream] escaped isolation: a bug *)
  let task i =
    let name, source = inputs.(i) in
    if Option.fold ~none:false ~some:Atomic.get stop then Error (Fault.Budget Fault.P_batch)
    else
      match Fault.wrap source with
      | Error _ as e -> e
      | Ok src -> (
          let key = Cache.key ~config src in
          match Hashtbl.find_opt replayed name with
          | Some r when String.equal r.Journal.j_key key ->
              Atomic.incr reused;
              Result.map (fun e -> (e, Cache.Hit)) r.Journal.j_result
          | _ ->
              let r = analyze supervisor ?cache ~config ~file:name src in
              (* the append stays inside the task, right after the
                 analysis, so a kill at the n-th append leaves exactly n
                 records; an I/O failure costs resume coverage, never
                 the result *)
              Option.iter
                (fun (j, _) ->
                  try
                    Journal.append j
                      { Journal.j_name = name; j_key = key; j_result = Result.map fst r }
                  with (Sys_error _ | Unix.Unix_error _) as e ->
                    on_journal_error name (Fault.of_exn e))
                journal;
              r)
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Supervise.shutdown supervisor;
      Option.iter (fun (j, _) -> Journal.close j) journal)
    (fun () ->
      (* the builtin framework program is a global lazy: force it before
         any domain spawns so they never race on the thunk *)
      ignore (Lazy.force Nadroid_lang.Builtins.program);
      Parallel.stream ?jobs ~n:(Array.length inputs) task (fun i r ->
          emit i
            (match r with
            | Ok r -> r
            | Error e -> Error (Fault.Internal (escaped_prefix ^ Printexc.to_string e)))));
  Atomic.get reused
