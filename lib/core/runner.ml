(* The domain-parallel experiment runner; see the .mli. *)

type outcome = {
  spec : Experiment_def.spec;
  tables : Results.table list;
  shape : (unit, string) result option;
}

let default_jobs = Parallel.default_jobs

let run ?jobs ?(size = Experiment_def.Default) specs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  Parallel.map ~jobs
    (fun (spec : Experiment_def.spec) ->
      (* Point-level fan-out inside spec.run degrades to sequential when
         this map already runs it on a worker domain (see Parallel.map). *)
      let tables = spec.run ~jobs size in
      let shape =
        match size with
        | Experiment_def.Default -> Some (spec.shape tables)
        | Experiment_def.Reduced -> None
      in
      { spec; tables; shape })
    specs

let tables outcomes = List.concat_map (fun o -> o.tables) outcomes

let failed_shapes outcomes =
  List.filter_map
    (fun o ->
      match o.shape with
      | Some (Error why) -> Some (o.spec.Experiment_def.id, why)
      | Some (Ok ()) | None -> None)
    outcomes
