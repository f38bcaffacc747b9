open Ir

type error = { where : string; what : string }

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.where e.what

(* A statement's location is its rendering, cut to 60 characters.
   Rendering is costly next to the checks themselves, so it happens
   only for a statement that has an error. *)
let render s =
  let where = Pp.stmts_to_string [ s ] in
  if String.length where > 60 then String.sub where 0 60 ^ "..." else where

let check p =
  let errors = ref [] in
  let err where what = errors := { where; what } :: !errors in
  let err_at s what = err (render s) what in
  (* Declarations. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.arr_name then
        err d.arr_name "duplicate array declaration";
      Hashtbl.replace seen d.arr_name d;
      let rank = Xdp_dist.Layout.rank d.layout in
      if List.length d.seg_shape <> rank then
        err d.arr_name "segment shape rank differs from array rank";
      if List.exists (fun s -> s <= 0) d.seg_shape then
        err d.arr_name "segment shape has a non-positive extent")
    p.decls;
  let rank_of name =
    match Hashtbl.find_opt seen name with
    | Some d -> Some (Xdp_dist.Layout.rank d.layout)
    | None -> None
  in
  let check_not_universal where name what =
    match Hashtbl.find_opt seen name with
    | Some d when d.universal ->
        err_at where
          (Printf.sprintf
             "%s names universally owned array %s (transfers require \
              exclusive sections; copy into an exclusive section first, \
              §2.6)"
             what name)
    | _ -> ()
  in
  let check_arr where name nsel =
    match rank_of name with
    | None -> err_at where (Printf.sprintf "undeclared array %s" name)
    | Some r ->
        if nsel <> r then
          err_at where
            (Printf.sprintf "%s has rank %d but %d subscripts given" name r
               nsel)
  in
  let rec check_expr ~guard where e =
    match e with
    | Int _ | Float _ | Bool _ | Var _ | Mypid | Nprocs -> ()
    | Elem (a, idxs) ->
        check_arr where a (List.length idxs);
        List.iter (check_expr ~guard where) idxs
    | Bin (_, a, b) ->
        check_expr ~guard where a;
        check_expr ~guard where b
    | Un (_, e) -> check_expr ~guard where e
    | Mylb (s, d) | Myub (s, d) ->
        check_section where s;
        (match rank_of s.arr with
        | Some r when d < 1 || d > r ->
            err_at where
              (Printf.sprintf "mylb/myub dimension %d out of range for %s" d
                 s.arr)
        | _ -> ())
    | Iown s | Accessible s -> check_section where s
    | Await s ->
        if not guard then
          err_at where
            (Printf.sprintf
               "await(%s) outside guard position (await blocks and may only \
                govern a compute rule)"
               (Pp.section_to_string s));
        check_section where s
  and check_section where s =
    check_arr where s.arr (List.length s.sel);
    List.iter
      (function
        | All -> ()
        | At e -> check_expr ~guard:false where e
        | Slice (a, b, c) ->
            check_expr ~guard:false where a;
            check_expr ~guard:false where b;
            check_expr ~guard:false where c)
      s.sel
  in
  let rec check_stmt where =
    match where with
    | Assign (Lvar _, e) -> check_expr ~guard:false where e
    | Assign (Lelem (a, idxs), e) ->
        check_arr where a (List.length idxs);
        List.iter (check_expr ~guard:false where) idxs;
        check_expr ~guard:false where e
    | Guard (g, body) ->
        check_expr ~guard:true where g;
        List.iter check_stmt body
    | For { lo; hi; step; body; _ } ->
        check_expr ~guard:false where lo;
        check_expr ~guard:false where hi;
        check_expr ~guard:false where step;
        (match Simplify.known_int step with
        | Some n when n <= 0 -> err_at where "loop step must be positive"
        | _ -> ());
        List.iter check_stmt body
    | If (c, a, b) ->
        check_expr ~guard:false where c;
        List.iter check_stmt a;
        List.iter check_stmt b
    | Send_value (s, d) -> (
        check_not_universal where s.arr "send";
        check_section where s;
        match d with
        | Unspecified -> ()
        | Directed [] -> err_at where "directed send with empty processor set"
        | Directed es -> List.iter (check_expr ~guard:false where) es)
    | Send_owner s | Send_owner_value s | Recv_owner s | Recv_owner_value s
      ->
        check_not_universal where s.arr "ownership transfer";
        check_section where s
    | Recv_value { into; from } ->
        check_not_universal where into.arr "receive";
        check_not_universal where from.arr "receive";
        check_section where into;
        check_section where from
    | Apply { fn; args } ->
        if args = [] then err_at where (fn ^ ": kernel applied to no sections");
        List.iter (check_section where) args
  in
  List.iter check_stmt p.body;
  List.rev !errors

let check_exn p =
  match check p with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Wf.check failed for %s:\n%s" p.prog_name
           (String.concat "\n"
              (List.map (Format.asprintf "%a" pp_error) errs)))
