(* bench/main.exe — regenerates every figure and experiment of the
   reproduction (see DESIGN.md §3 for the index):

     FIG1..FIG4   the paper's figures, regenerated programmatically
     EX22, EX4    the worked listings of §2.2 and §4
     T1..T7       quantitative experiments derived from the paper's
                  qualitative performance claims
     MB           Bechamel micro-benchmarks of the run-time structures

   With no arguments everything runs (the order above); pass ids to
   run a subset, e.g.:  dune exec bench/main.exe -- fig2 t1 t5 *)

let items : (string * (unit -> unit)) list =
  [
    ("fig1", Figures.fig1);
    ("fig2", Figures.fig2);
    ("fig3", Figures.fig3);
    ("fig4", Figures.fig4);
    ("ex22", Figures.ex22);
    ("ex4", Figures.ex4);
    ("t1", Experiments.t1);
    ("t2", (fun () -> Experiments.t2 (); Experiments.t2b ()));
    ("t3", Experiments.t3);
    ("t4", (fun () -> Experiments.t4 (); Experiments.t4c ()));
    ("t5", Experiments.t5);
    ("t6", Experiments.t6);
    ("t7", (fun () -> Experiments.t7 (); Experiments.t7d ()));
    ("t8", Experiments.t8);
    ("t9", Experiments.t9);
    ("t10", Experiments.t10);
    ("micro", (fun () -> Micro.run ()));
    ("net", (fun () -> Netbench.run ()));
    ("exec", (fun () -> Execbench.run ()));
    ("batch", (fun () -> Batchbench.run ()));
    ("nic", (fun () -> Nicbench.run ()));
    ("redist", (fun () -> Redistbench.run ()));
    ("search", (fun () -> Searchbench.run ()));
    (* tiny sizes, same code paths: the `bench-smoke` dune alias runs
       these under `dune runtest` so the harness cannot bit-rot *)
    ("micro-smoke", (fun () -> Micro.run ~smoke:true ()));
    ("net-smoke", (fun () -> Netbench.run ~smoke:true ()));
    ("exec-smoke", (fun () -> Execbench.run ~smoke:true ()));
    ("batch-smoke", (fun () -> Batchbench.run ~smoke:true ()));
    ("nic-smoke", (fun () -> Nicbench.run ~smoke:true ()));
    ("redist-smoke", (fun () -> Redistbench.run ~smoke:true ()));
    ("search-smoke", (fun () -> Searchbench.run ~smoke:true ()));
  ]

let () =
  let args =
    Sys.argv |> Array.to_list |> List.tl
    |> List.map String.lowercase_ascii
  in
  let selected =
    match args with
    | [] -> items
    | ids ->
        List.filter_map
          (fun id ->
            match List.assoc_opt id items with
            | Some f -> Some (id, f)
            | None ->
                Printf.eprintf
                  "unknown id %s (known: %s)\n" id
                  (String.concat " " (List.map fst items));
                exit 2)
          ids
  in
  Printf.printf
    "XDP reproduction benchmark harness — one section per figure/table \
     (DESIGN.md section 3)\n";
  (* a failed tripwire's message holds a table: print it verbatim *)
  List.iter
    (fun (_, f) ->
      try f () with Failure msg -> prerr_endline msg; exit 1)
    selected;
  Printf.printf "\nAll selected sections completed.\n"
