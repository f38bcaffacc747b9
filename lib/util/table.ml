type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ~title ~header rows =
  let ncols = List.length header in
  let align = List.mapi (fun i _ -> if i = 0 then Left else Right) header in
  let normalize row =
    let n = List.length row in
    if n >= ncols then row
    else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let buf = Buffer.create 1024 in
  let line ch =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) ch))
      widths;
    Buffer.add_string buf "+\n"
  in
  let emit row =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        let a = List.nth align i in
        Buffer.add_string buf ("| " ^ pad a w cell ^ " "))
      row;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf (title ^ "\n");
  line '-';
  emit header;
  line '=';
  List.iter emit rows;
  line '-';
  Buffer.contents buf
