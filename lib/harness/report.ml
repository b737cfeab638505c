(* Value-level reporting.

   A report is a [doc]: an ordered list of sections, free text, aligned
   tables, ASCII line charts and file artifacts.  Constructors are pure and
   rendering is a separate step, so experiments can execute on worker
   domains while the coordinator renders their docs in canonical order —
   the merged output is byte-identical to a sequential run.
   Artifacts (CSV dumps, JSON curves, traces) are also values: worker
   domains never open files; [write_artifacts] does, on the coordinating
   domain. *)

module Json = Oamem_obs.Json

type table = { header : string list; rows : string list list }

type chart = {
  width : int;
  height : int;
  title : string;
  xlabel : string;
  ylabel : string;
  xs : int list;
  series : (string * float list) list;
}

type artifact = { filename : string; in_dir : bool; content : string }

type item =
  | Section of string
  | Text of string
  | Table of table
  | Chart of chart
  | Artifact of artifact

type doc = item list

(* --- constructors ----------------------------------------------------------- *)

let section title = Section title
let text s = Text s
let textf fmt = Printf.ksprintf (fun s -> Text s) fmt
let table ~header rows = Table { header; rows }

let chart ?(width = 64) ?(height = 16) ~title ~xlabel ~ylabel ~xs series =
  Chart { width; height; title; xlabel; ylabel; xs; series }

let artifact ?(in_dir = true) ~filename content =
  Artifact { filename; in_dir; content }

let csv ~filename ~header rows =
  artifact ~filename (Oamem_obs.Export.csv ~header rows)

let json_artifact ?in_dir ~filename j =
  artifact ?in_dir ~filename (Json.to_string j ^ "\n")

(* --- rendering -------------------------------------------------------------- *)

let render_table buf { header; rows } =
  let fprintf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let print_row row =
    List.iteri
      (fun i cell -> fprintf "%s%s  " cell (String.make (widths.(i) - String.length cell) ' '))
      row;
    fprintf "\n"
  in
  print_row header;
  List.iteri (fun i w -> ignore i; fprintf "%s  " (String.make w '-')) (Array.to_list widths);
  fprintf "\n";
  List.iter print_row rows

(* Plot series of (x, y) points on a character grid; each series gets a
   letter.  X positions are treated as ordinal (evenly spaced), matching the
   paper's thread-count axes. *)
let render_chart buf { width; height; title; xlabel; ylabel; xs; series } =
  let fprintf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let nx = List.length xs in
  if nx = 0 || series = [] then ()
  else begin
    let ymax =
      List.fold_left
        (fun acc (_, ys) -> List.fold_left max acc ys)
        1e-9 series
    in
    let grid = Array.make_matrix height width ' ' in
    let col_of i = if nx = 1 then 0 else i * (width - 1) / (nx - 1) in
    let row_of y =
      let r = int_of_float (y /. ymax *. float_of_int (height - 1)) in
      height - 1 - max 0 (min (height - 1) r)
    in
    List.iteri
      (fun si (_, ys) ->
        let letter = Char.chr (Char.code 'A' + (si mod 26)) in
        let pts = List.mapi (fun i y -> (col_of i, row_of y)) ys in
        (* draw segments between consecutive points *)
        let rec draw = function
          | (c0, r0) :: ((c1, r1) :: _ as rest) ->
              let steps = max 1 (c1 - c0) in
              for s = 0 to steps do
                let c = c0 + (s * (c1 - c0) / steps) in
                let r = r0 + (s * (r1 - r0) / steps) in
                if grid.(r).(c) = ' ' || s = 0 then grid.(r).(c) <- letter
              done;
              draw rest
          | [ (c, r) ] -> grid.(r).(c) <- letter
          | [] -> ()
        in
        draw pts)
      series;
    fprintf "\n  %s\n" title;
    fprintf "  %s (max %.3f)\n" ylabel ymax;
    Array.iter (fun row -> fprintf "  |%s|\n" (String.init width (Array.get row))) grid;
    fprintf "  +%s+\n" (String.make width '-');
    let xs_str = List.map string_of_int xs in
    fprintf "   %s: %s\n" xlabel (String.concat " " xs_str);
    List.iteri
      (fun si (name, _) ->
        fprintf "   %c = %s\n" (Char.chr (Char.code 'A' + (si mod 26))) name)
      series;
    fprintf "\n"
  end

let render_item buf = function
  | Section title ->
      let bar = String.make (String.length title + 4) '=' in
      Buffer.add_string buf (Printf.sprintf "\n%s\n= %s =\n%s\n" bar title bar)
  | Text s -> Buffer.add_string buf s
  | Table t -> render_table buf t
  | Chart c -> render_chart buf c
  | Artifact _ -> ()

let to_string doc =
  let buf = Buffer.create 4096 in
  List.iter (render_item buf) doc;
  Buffer.contents buf

let render oc doc = output_string oc (to_string doc)

(* --- artifacts -------------------------------------------------------------- *)

let artifacts doc =
  List.filter_map (function Artifact a -> Some a | _ -> None) doc

let write_artifacts ?dir doc =
  let mkdir_p d =
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  List.filter_map
    (fun a ->
      let path =
        if a.in_dir then
          match dir with
          | None -> None  (* no artifact dir requested: drop the CSV dump *)
          | Some d ->
              mkdir_p d;
              Some (Filename.concat d a.filename)
        else Some a.filename
      in
      Option.map
        (fun path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc a.content);
          path)
        path)
    (artifacts doc)

(* --- JSON export ------------------------------------------------------------- *)

let to_json doc =
  let item_json = function
    | Section title ->
        Json.Obj [ ("kind", Json.String "section"); ("title", Json.String title) ]
    | Text s -> Json.Obj [ ("kind", Json.String "text"); ("text", Json.String s) ]
    | Table { header; rows } ->
        Json.Obj
          [
            ("kind", Json.String "table");
            ("header", Json.List (List.map (fun c -> Json.String c) header));
            ( "rows",
              Json.List
                (List.map
                   (fun row ->
                     Json.List (List.map (fun c -> Json.String c) row))
                   rows) );
          ]
    | Chart { title; xlabel; ylabel; xs; series; _ } ->
        Json.Obj
          [
            ("kind", Json.String "chart");
            ("title", Json.String title);
            ("xlabel", Json.String xlabel);
            ("ylabel", Json.String ylabel);
            ("xs", Json.List (List.map (fun x -> Json.Int x) xs));
            ( "series",
              Json.List
                (List.map
                   (fun (name, ys) ->
                     Json.Obj
                       [
                         ("name", Json.String name);
                         ( "ys",
                           Json.List (List.map (fun y -> Json.Float y) ys) );
                       ])
                   series) );
          ]
    | Artifact { filename; in_dir; _ } ->
        Json.Obj
          [
            ("kind", Json.String "artifact");
            ("filename", Json.String filename);
            ("in_dir", Json.Bool in_dir);
          ]
  in
  Json.List (List.map item_json doc)
