(* Tests for the PRNG, stats helpers and the table renderer. *)

open Xdp_util

let test_prng_deterministic () =
  let a = Prng.of_seed 42 and b = Prng.of_seed 42 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Prng.of_seed 43 in
  let zs = List.init 20 (fun _ -> Prng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_prng_ranges () =
  let rng = Prng.of_seed 7 in
  for _ = 1 to 500 do
    let x = Prng.int rng 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let y = Prng.int_in rng 5 9 in
    Alcotest.(check bool) "int_in range" true (y >= 5 && y <= 9);
    let f = Prng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_split_independent () =
  let parent = Prng.of_seed 1 in
  let child = Prng.split parent in
  let a = Prng.int parent 1_000_000 and b = Prng.int child 1_000_000 in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_shuffle_permutes () =
  let rng = Prng.of_seed 5 in
  let l = List.init 20 Fun.id in
  let s = Prng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_stats () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.stddev xs);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_ xs);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max_ xs);
  Alcotest.(check (float 1e-9)) "median" 4.5 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p0" 2.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 9.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "imbalance" 1.8 (Stats.imbalance xs)

let test_table_renders () =
  let s =
    Table.render ~title:"T" ~header:[ "name"; "v" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0 && String.sub s 0 1 = "T");
  (* all rows same width *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length (List.tl lines) in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_layout () =
  (* label column left-aligned, numbers right-aligned, short rows padded *)
  let s =
    Table.render ~title:"T" ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "bb" ] ]
  in
  Alcotest.(check (list string)) "layout"
    [
      "T";
      "+------+-------+";
      "| name | value |";
      "+======+=======+";
      "| a    |     1 |";
      "| bb   |       |";
      "+------+-------+";
      "";
    ]
    (String.split_on_char '\n' s)

let test_heap_basic () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop duplicate" (Some 1) (Heap.pop h);
  Heap.push h 0;
  Alcotest.(check (option int)) "push after pop" (Some 0) (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list int) (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs && Heap.is_empty h)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 20) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      v >= Stats.min_ xs -. 1e-9 && v <= Stats.max_ xs +. 1e-9)

let () =
  Alcotest.run "util_misc"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats;
          QCheck_alcotest.to_alcotest prop_percentile_bounded;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_renders;
          Alcotest.test_case "layout" `Quick test_table_layout;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
    ]
