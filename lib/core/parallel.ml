(* Ordered fan-out over OCaml 5 domains.

   A fresh set of domains per call (no persistent pool): experiment runs
   are orders of magnitude longer than Domain.spawn, and per-call domains
   make nesting trivial — a worker that fans out again just runs
   sequentially (guarded by Domain.is_main_domain), so the runner can
   parallelize across experiments while each experiment's own point-level
   fan-out degrades gracefully inside a worker. *)

let default_jobs () = Domain.recommended_domain_count ()

let map ~jobs f xs =
  let n = List.length xs in
  let jobs = min jobs n in
  if jobs <= 1 || not (Domain.is_main_domain ()) then List.map f xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          (match f input.(i) with
          | y -> out.(i) <- Some y
          | exception e ->
            ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init jobs (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.to_list
      (Array.map
         (function Some y -> y | None -> assert false (* failure was raised *))
         out)
  end
