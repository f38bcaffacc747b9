(* bench/main.exe — regenerates every figure and experiment of the
   reproduction (see DESIGN.md §3 for the index):

     paper        Figure 1's conformance rows, Figure 2's and 4's
                  counts, the worked listings' digests and the
                  experiments T1..T10 derived from the paper's
                  qualitative performance claims, written to
                  BENCH_paper.json
     FIG2..FIG4   the paper's other figures, printed whole
     EX22, EX4    the worked listings of §2.2 and §4, printed
     micro        MB, ns per operation of the run-time structures,
                  and the board hot paths (BENCH_board.json)
     net .. search  the subsystem drivers (BENCH_<id>.json)

   With no arguments everything runs (the order below); pass ids to
   run a subset, e.g.:  dune exec bench/main.exe -- paper fig2 *)

let items : (string * (unit -> unit)) list =
  [
    ("paper", Experiments.run);
    ("fig2", Figures.fig2);
    ("fig3", Figures.fig3);
    ("fig4", Figures.fig4);
    ("ex22", Figures.ex22);
    ("ex4", Figures.ex4);
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
