(* doccheck.exe EXPERIMENTS.md BENCH_paper.json — checks that the T1-T10
   sections of EXPERIMENTS.md quote only numbers the paper bench
   measured, so the prose cannot drift from the receipts.

   The T sections run from a "### T<digit>" heading to the next heading
   of any other kind.  Every number in their prose and tables must
   equal a numeric value of BENCH_paper.json (a row's config or a
   measured column) at the precision printed: "66.5" stands for any
   value that rounds or truncates to 66.5, and "5.4%" for a fraction
   that does so once scaled by 100.  Not measured, so skipped: the
   headings, the **Claim.** paragraphs (the paper's own words), and
   digits glued to a name (§2.2, T4.b, iPSC/860, 3-D, 2P, 50k).  Exits
   1 listing every number that matches no value. *)

module J = Xdp_util.Jsonw

let read file = In_channel.with_open_bin file In_channel.input_all

let rec values = function
  | J.Int i -> [ float_of_int i ]
  | J.Float x | J.Fixed (x, _) -> [ x ]
  | J.Arr l -> List.concat_map values l
  | J.Obj l -> List.concat_map (fun (_, v) -> values v) l
  | J.Null | J.Bool _ | J.Str _ -> []

(* The lines of the T sections, less headings and claim paragraphs. *)
let t_section_lines doc =
  let in_t = ref false and in_claim = ref false in
  List.filter
    (fun line ->
      let starts p = String.starts_with ~prefix:p line in
      if starts "#" then begin
        in_t :=
          starts "### T" && String.length line > 5
          && line.[5] >= '0' && line.[5] <= '9';
        false
      end
      else begin
        if starts "**Claim.**" then in_claim := true
        else if String.trim line = "" then in_claim := false;
        !in_t && not !in_claim
      end)
    (String.split_on_char '\n' doc)

let letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let number = Str.regexp "[0-9]+\\(\\.[0-9]+\\)?"

(* The numbers of [line], each with whether a '%' follows it; a number
   glued to a name (a letter, '/', '_', '.', '-' or a non-ASCII byte
   such as the tail of "§" before it, a letter or "-D" after it) is
   skipped. *)
let numbers line =
  let at k = if k >= 0 && k < String.length line then line.[k] else ' ' in
  let rec scan pos acc =
    match Str.search_forward number line pos with
    | exception Not_found -> List.rev acc
    | i ->
        let tok = Str.matched_string line in
        let j = i + String.length tok and b = at (i - 1) in
        let named =
          letter b || String.contains "/_.-" b || Char.code b >= 128
          || letter (at j) || (at j = '-' && letter (at (j + 1)))
        in
        scan j (if named then acc else (tok, at j = '%') :: acc)
  in
  scan 0 []

(* [v] printed with [tok]'s decimals, rounded or truncated, is [tok]. *)
let shows tok v =
  let d =
    match String.index_opt tok '.' with
    | Some k -> String.length tok - k - 1
    | None -> 0
  in
  let scale = 10.0 ** float_of_int d in
  Printf.sprintf "%.*f" d v = tok
  || Printf.sprintf "%.*f" d (Float.trunc (v *. scale) /. scale) = tok

let () =
  match Sys.argv with
  | [| _; doc; bench |] ->
      let vs = values (Xdp_batch.Json.parse (read bench)) in
      let lines = t_section_lines (read doc) in
      let unmatched =
        List.concat_map
          (fun line ->
            List.filter_map
              (fun (tok, pct) ->
                let scaled v = if pct then 100.0 *. v else v in
                if List.exists (fun v -> shows tok (scaled v)) vs then None
                else Some (Printf.sprintf "  %s%s in: %s" tok
                             (if pct then "%" else "") (String.trim line)))
              (numbers line))
          lines
      in
      if unmatched <> [] then begin
        prerr_endline
          (String.concat "\n"
             ((doc ^ ": T1-T10 numbers that no value of " ^ bench
              ^ " shows:")
             :: unmatched));
        exit 1
      end
  | _ ->
      prerr_endline "usage: doccheck.exe EXPERIMENTS.md BENCH_paper.json";
      exit 2
