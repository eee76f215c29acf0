(** Wire protocol of the compile service (see the interface). *)

module Driver = Simd_codegen.Driver
module Json = Simd_support.Json

let schema = "simd-serve/1"

(* Folded into every cache key. Bump when compilation output changes. *)
let library_version = "simd_align/10"

type emit = Vir | C | Altivec | Sse | Avx2 | Neon

let emit_name = function
  | Vir -> "vir"
  | C -> "c"
  | Altivec -> "altivec"
  | Sse -> "sse"
  | Avx2 -> "avx2"
  | Neon -> "neon"

let emit_of_name = function
  | "vir" -> Some Vir
  | "c" | "portable" -> Some C
  | "altivec" -> Some Altivec
  | "sse" -> Some Sse
  | "avx2" -> Some Avx2
  | "neon" -> Some Neon
  | _ -> None

let default_emits = [ Vir; C ]

type request = {
  id : string;
  source : string;
  config : Driver.config;
  emits : emit list;
}

type parsed =
  | Compile of request
  | Ping
  | Stats
  | Shutdown
  | Malformed of { id : string option; message : string }

(* ------------------------------------------------------------------ *)
(* Config codec: the driver's field table, as JSON                     *)
(* ------------------------------------------------------------------ *)

let json_of_value : type a. a Driver.kind -> a -> Json.t =
 fun kind v ->
  match kind with
  | Driver.Bool -> Json.Bool v
  | Driver.Int -> Json.Int v
  | Driver.Name -> Json.String v

let config_to_json (cfg : Driver.config) =
  Json.Obj
    (List.map
       (fun (Driver.Field f) -> (f.key, json_of_value f.kind (f.get cfg)))
       Driver.fields)

exception Bad_field of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_field m)) fmt

let value_of_json : type a. string -> a Driver.kind -> Json.t -> a =
 fun key kind v ->
  match (kind, v) with
  | Driver.Bool, _ -> (
    match Json.to_bool_opt v with
    | Some b -> b
    | None -> bad "config field %s: expected boolean" key)
  | Driver.Int, Json.Int n -> n
  | Driver.Int, _ -> bad "config field %s: expected integer" key
  | Driver.Name, Json.String s -> s
  | Driver.Name, _ -> bad "config field %s: expected string" key

let apply_config_field cfg (key, v) =
  match Driver.find_field key with
  | None -> bad "unknown config field %S" key
  | Some (Driver.Field f) -> (
    match f.set (value_of_json key f.kind v) cfg with
    | Ok cfg -> cfg
    | Error m -> bad "%s" m)

let config_of_json = function
  | Json.Obj fields -> (
    try Ok (List.fold_left apply_config_field Driver.default fields)
    with Bad_field m -> Error m)
  | Json.Null -> Ok Driver.default
  | _ -> Error "config: expected an object"

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let parse_emits = function
  | None -> Ok default_emits
  | Some (Json.List items) -> (
    try
      Ok
        (List.map
           (fun item ->
             match item with
             | Json.String s -> (
               match emit_of_name s with
               | Some e -> e
               | None -> bad "unknown emit kind %S" s)
             | _ -> bad "emit: expected a list of strings")
           items)
    with Bad_field m -> Error m)
  | Some _ -> Error "emit: expected a list of strings"

let parse_line line : parsed =
  match Json.of_string line with
  | Error m -> Malformed { id = None; message = m }
  | Ok doc -> (
    let id = Option.bind (Json.member "id" doc) Json.to_string_opt in
    match Option.bind (Json.member "op" doc) Json.to_string_opt with
    | Some "ping" -> Ping
    | Some "stats" -> Stats
    | Some "shutdown" -> Shutdown
    | Some op -> Malformed { id; message = Printf.sprintf "unknown op %S" op }
    | None -> (
      match Option.bind (Json.member "source" doc) Json.to_string_opt with
      | None -> Malformed { id; message = "missing \"source\" (or \"op\")" }
      | Some source -> (
        match
          config_of_json
            (Option.value ~default:Json.Null (Json.member "config" doc))
        with
        | Error m -> Malformed { id; message = m }
        | Ok config -> (
          match parse_emits (Json.member "emit" doc) with
          | Error m -> Malformed { id; message = m }
          | Ok emits ->
            Compile { id = Option.value ~default:"" id; source; config; emits }
          ))))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let request_to_line (r : request) =
  Json.to_line
    (Json.Obj
       [
         ("id", Json.String r.id);
         ("source", Json.String r.source);
         ("config", config_to_json r.config);
         ( "emit",
           Json.List (List.map (fun e -> Json.String (emit_name e)) r.emits) );
       ])

let response_line ~id outcome_doc =
  match outcome_doc with
  | Json.Obj fields -> Json.to_line (Json.Obj (("id", Json.String id) :: fields))
  | other ->
    Json.to_line (Json.Obj [ ("id", Json.String id); ("outcome", other) ])

let error_response ~id message =
  response_line ~id
    (Json.Obj
       [ ("status", Json.String "error"); ("message", Json.String message) ])
