let prefixes =
  [ (1e12, "T"); (1e9, "G"); (1e6, "Meg"); (1e3, "k"); (1., "");
    (1e-3, "m"); (1e-6, "u"); (1e-9, "n"); (1e-12, "p"); (1e-15, "f") ]

let format_eng ?(unit_symbol = "") x =
  if x = 0. then "0" ^ unit_symbol
  else begin
    let mag = Float.abs x in
    let scale, prefix =
      let rec pick = function
        | [] -> (1e-15, "f")
        | (s, p) :: rest -> if mag >= s *. 0.9999999 then (s, p) else pick rest
      in
      pick prefixes
    in
    let mantissa = x /. scale in
    let str =
      if Float.abs (mantissa -. Float.round mantissa) < 1e-9 then
        Printf.sprintf "%.0f" mantissa
      else Printf.sprintf "%.3g" mantissa
    in
    str ^ prefix ^ unit_symbol
  end

let parse_eng s =
  let s = String.lowercase_ascii (String.trim s) in
  let n = String.length s in
  if n = 0 then None
  else begin
    (* longest numeric prefix *)
    let is_num c =
      (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e'
    in
    (* treat 'e' as numeric only when followed by digit/sign *)
    let rec split i =
      if i >= n then i
      else
        let c = s.[i] in
        if c = 'e' && i + 1 < n
           && (let d = s.[i + 1] in (d >= '0' && d <= '9') || d = '-' || d = '+')
        then split (i + 2)
        else if is_num c && c <> 'e' then split (i + 1)
        else i
    in
    let cut = split 0 in
    if cut = 0 then None
    else
      match float_of_string_opt (String.sub s 0 cut) with
      | None -> None
      | Some base ->
          let suffix = String.sub s cut (n - cut) in
          let mult =
            if suffix = "" then Some 1.
            else if String.length suffix >= 3 && String.sub suffix 0 3 = "meg"
            then Some 1e6
            else
              match suffix.[0] with
              | 't' -> Some 1e12
              | 'g' -> Some 1e9
              | 'k' -> Some 1e3
              | 'm' -> Some 1e-3
              | 'u' -> Some 1e-6
              | 'n' -> Some 1e-9
              | 'p' -> Some 1e-12
              | 'f' -> Some 1e-15
              | _ -> None
          in
          Option.map (fun m -> base *. m) mult
  end
